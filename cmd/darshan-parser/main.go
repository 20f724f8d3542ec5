// Command darshan-parser reads a darshan-sim log (gzip-compressed JSON,
// as written by Log.Encode) from a real host file and prints the same
// summary report the experiments use, mirroring `darshan-parser --total`.
//
//	darshan-parser run.darshan.gz
package main

import (
	"fmt"
	"io"
	"os"

	"picmcio/internal/darshan"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on its arguments and output streams. It returns the
// exit status: 0, 1 on a file that is no log, 2 on anything but one path.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: darshan-parser <log-file>")
		return 2
	}
	if err := report(stdout, args[0]); err != nil {
		fmt.Fprintln(stderr, "darshan-parser:", err)
		return 1
	}
	return 0
}

// report prints the summary of the log at path and its per-file table.
func report(stdout io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := darshan.Parse(f)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, log.Report())
	fmt.Fprintln(stdout, "\nper-file summary:")
	for _, s := range log.FileSummaries() {
		fmt.Fprintf(stdout, "  %-48s wrote=%-10d read=%-10d writers=%d\n",
			s.Path, s.BytesWritten, s.BytesRead, s.Writers)
	}
	return nil
}
