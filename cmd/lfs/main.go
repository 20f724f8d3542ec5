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
	"io"
	"os"
	"strings"

	"picmcio/internal/experiments"
	"picmcio/internal/pfs"
	"picmcio/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage:
  lfs setstripe -c <count> -S <size> <dir>   (then shows getstripe of a file in <dir>)
  lfs getstripe <path>`

// run is the command on its arguments and output streams. It returns the
// exit status: 0, 1 on an error, 2 on a verb, flag or path count it does
// not take; getstripe takes no flags.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	// getstripe needs a file to exist; this demo tool combines both verbs
	// on a fresh simulated FS, so getstripe alone creates the file with
	// the default layout first.
	path, count, size := "", 1, int64(1<<20)
	switch args[0] {
	case "setstripe":
		fs := flag.NewFlagSet("setstripe", flag.ContinueOnError)
		fs.SetOutput(stderr)
		c := fs.Int("c", 1, "stripe count (-1 = all OSTs)")
		s := fs.String("S", "1M", "stripe size")
		if err := fs.Parse(args[1:]); err == flag.ErrHelp {
			return 0
		} else if err != nil {
			return 2
		}
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, usage)
			return 2
		}
		sz, err := units.ParseBytes(*s)
		if err != nil {
			fmt.Fprintln(stderr, "lfs:", err)
			return 1
		}
		path, count, size = pfs.Join(fs.Arg(0), "dat_file.bp4", "data.0"), *c, sz
	case "getstripe":
		if len(args) != 2 || strings.HasPrefix(args[1], "-") {
			fmt.Fprintln(stderr, usage)
			return 2
		}
		path = args[1]
	default:
		fmt.Fprintln(stderr, usage)
		return 2
	}
	// The target is created on a simulated Dardel with the given layout.
	out, err := experiments.StripeListing(path, count, size)
	if err != nil {
		fmt.Fprintln(stderr, "lfs:", err)
		return 1
	}
	fmt.Fprint(stdout, out)
	return 0
}
