// Command ior runs the IOR benchmark clone against a simulated machine,
// mirroring the Table I invocations.
//
//	ior -n 25600 -a POSIX -F -C -e -machine dardel -nodes 200
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"picmcio/internal/cluster"
	"picmcio/internal/ior"
	"picmcio/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on its arguments and output streams. It returns the
// exit status: 0, 1 on an error, 2 on a flag the parser rejects or an
// argument that is no flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	tasks := fs.Int("n", 128, "task count (-N)")
	api := fs.String("a", "POSIX", "API")
	fpp := fs.Bool("F", false, "file per process")
	reorder := fs.Bool("C", false, "reorder tasks for readback")
	fsync := fs.Bool("e", false, "fsync on close")
	read := fs.Bool("r", false, "perform the read phase")
	transfer := fs.String("t", "1m", "transfer size")
	block := fs.String("b", "16m", "block size per task")
	machine := fs.String("machine", "dardel", "machine model")
	nodes := fs.Int("nodes", 1, "node allocation")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ior: unexpected argument %q: every setting is a flag\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if err := runIOR(stdout, *machine, *nodes, *api, *transfer, *block, ior.Config{
		NumTasks: *tasks, FilePerProc: *fpp, ReorderTasks: *reorder, Fsync: *fsync,
		ReadBack: *read, TestDir: "/ior",
	}); err != nil {
		fmt.Fprintln(stderr, "ior:", err)
		return 1
	}
	return 0
}

// runIOR completes cfg with the API and the sizes as given on the command
// line, runs it on nodes of the named machine and prints the summary.
func runIOR(stdout io.Writer, machine string, nodes int, api, transfer, block string, cfg ior.Config) error {
	m, err := cluster.ByName(machine)
	if err != nil {
		return err
	}
	cfg.API = ior.API(strings.ToUpper(api))
	if cfg.TransferSize, err = units.ParseBytes(transfer); err != nil {
		return err
	}
	if cfg.BlockSize, err = units.ParseBytes(block); err != nil {
		return err
	}
	// IOR's rule: a task's block is whole transfers. ior.Config takes a
	// short last transfer (fig4's reference run writes one), the command
	// line does not.
	if cfg.TransferSize > 0 && cfg.BlockSize%cfg.TransferSize != 0 {
		return fmt.Errorf("-b %s is not a multiple of -t %s", block, transfer)
	}
	sys, err := m.Build(m.NewKernel(nodes), nodes, 1)
	if err != nil {
		return err
	}
	w, envOf, err := sys.LaunchN(cfg.NumTasks, nil)
	if err != nil {
		return err
	}
	res, err := ior.Run(cfg, w, envOf)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "command:   %s\n", cfg.CommandLine())
	fmt.Fprintf(stdout, "machine:   %s (%d nodes)\n", m.Name, nodes)
	fmt.Fprintf(stdout, "write:     %s in %s -> %s\n", units.Bytes(res.WriteBytes),
		units.Seconds(res.WriteSeconds), units.Throughput(res.WriteBandwidth))
	if cfg.ReadBack {
		fmt.Fprintf(stdout, "read:      %s in %s -> %s\n", units.Bytes(res.ReadBytes),
			units.Seconds(res.ReadSeconds), units.Throughput(res.ReadBandwidth))
	}
	fmt.Fprintf(stdout, "files:     %d\n", res.FilesCreated)
	return nil
}
