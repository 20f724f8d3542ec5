// Command ior runs the IOR benchmark clone against a simulated machine,
// mirroring the Table I invocations.
//
//	ior -n 25600 -a POSIX -F -C -e -machine dardel -nodes 200
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"picmcio/internal/cluster"
	"picmcio/internal/ior"
	"picmcio/internal/units"
)

func main() {
	tasks := flag.Int("n", 128, "task count (-N)")
	api := flag.String("a", "POSIX", "API")
	fpp := flag.Bool("F", false, "file per process")
	reorder := flag.Bool("C", false, "reorder tasks for readback")
	fsync := flag.Bool("e", false, "fsync on close")
	read := flag.Bool("r", false, "perform the read phase")
	transfer := flag.String("t", "1m", "transfer size")
	block := flag.String("b", "16m", "block size per task")
	machine := flag.String("machine", "dardel", "machine model")
	nodes := flag.Int("nodes", 1, "node allocation")
	flag.Parse()

	m, err := cluster.ByName(*machine)
	if err != nil {
		fatal(err)
	}
	tSize, err := units.ParseBytes(*transfer)
	if err != nil {
		fatal(err)
	}
	bSize, err := units.ParseBytes(*block)
	if err != nil {
		fatal(err)
	}
	cfg := ior.Config{
		NumTasks: *tasks, API: ior.API(strings.ToUpper(*api)),
		FilePerProc: *fpp, ReorderTasks: *reorder, Fsync: *fsync,
		TransferSize: tSize, BlockSize: bSize, ReadBack: *read,
		TestDir: "/ior",
	}
	sys, err := m.Build(m.NewKernel(*nodes), *nodes, 1)
	if err != nil {
		fatal(err)
	}
	w, envOf, err := sys.LaunchN(*tasks, nil)
	if err != nil {
		fatal(err)
	}
	res, err := ior.Run(cfg, w, envOf)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("command:   %s\n", cfg.CommandLine())
	fmt.Printf("machine:   %s (%d nodes)\n", m.Name, *nodes)
	fmt.Printf("write:     %s in %s -> %s\n", units.Bytes(res.WriteBytes),
		units.Seconds(res.WriteSeconds), units.Throughput(res.WriteBandwidth))
	if cfg.ReadBack {
		fmt.Printf("read:      %s in %s -> %s\n", units.Bytes(res.ReadBytes),
			units.Seconds(res.ReadSeconds), units.Throughput(res.ReadBandwidth))
	}
	fmt.Printf("files:     %d\n", res.FilesCreated)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ior:", err)
	os.Exit(1)
}
