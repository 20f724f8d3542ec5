// Command lfs demonstrates Lustre striping control against the simulated
// file system, reproducing the paper's Table III command and Listing 1
// output.
//
//	lfs setstripe -c 8 -S 16M io_openPMD     # configure + create + show
//	lfs getstripe io_openPMD/dat_file.bp4/data.0
package main

import (
	"flag"
	"fmt"
	"os"

	"picmcio/internal/experiments"
	"picmcio/internal/pfs"
	"picmcio/internal/units"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "setstripe":
		setstripe(os.Args[2:])
	case "getstripe":
		// getstripe needs a file to exist; this demo tool combines both
		// verbs on a fresh simulated FS, so getstripe alone re-creates
		// the default-layout file first.
		getstripe(os.Args[2:], 1, 1<<20)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  lfs setstripe -c <count> -S <size> <dir>   (then shows getstripe of a file in <dir>)
  lfs getstripe <path>`)
	os.Exit(2)
}

func setstripe(args []string) {
	fs := flag.NewFlagSet("setstripe", flag.ExitOnError)
	count := fs.Int("c", 1, "stripe count (-1 = all OSTs)")
	size := fs.String("S", "1M", "stripe size")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	sz, err := units.ParseBytes(*size)
	if err != nil {
		fatal(err)
	}
	getstripe([]string{pfs.Join(fs.Arg(0), "dat_file.bp4", "data.0")}, *count, sz)
}

// getstripe creates the target on a simulated Dardel with the given
// directory layout and prints its stripe map.
func getstripe(args []string, count int, size int64) {
	if len(args) != 1 {
		usage()
	}
	out, err := experiments.StripeListing(args[0], count, size)
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lfs:", err)
	os.Exit(1)
}
