package main

import (
	"testing"

	"picmcio/clitest"
)

// runRows are the argument sets TestRun pins: stdout against a fixture
// captured from the command's binary before it ran as a function, or a
// refusal's exit code and first stderr line. They are FuzzFlags'
// seeds too.
var runRows = []clitest.Row{
	{Args: "testdata/run.darshan.gz", Golden: "run.txt"},

	{Args: "nonexistent.darshan.gz", Code: 1, Stderr: "darshan-parser: open nonexistent.darshan.gz: no such file or directory"},
	{Args: "/dev/null", Code: 1, Stderr: "darshan-parser: darshan: not a darshan-sim log: EOF"},
	{Args: ".", Code: 1, Stderr: "darshan-parser: darshan: not a darshan-sim log: read .: is a directory"},
	{Args: "testdata/truncated.darshan.gz", Code: 1, Stderr: "darshan-parser: darshan: parse: unexpected EOF"},
	{Args: "testdata/run.json", Code: 1, Stderr: "darshan-parser: darshan: not a darshan-sim log: gzip: invalid header"},
	// It takes no flags: -h is a file name.
	{Args: "-h", Code: 1, Stderr: "darshan-parser: open -h: no such file or directory"},
	{Args: "", Code: 2, Stderr: "usage: darshan-parser <log-file>"},
	{Args: "testdata/run.darshan.gz extra", Code: 2, Stderr: "usage: darshan-parser <log-file>"},
}

func TestRun(t *testing.T) { clitest.Rows(t, run, runRows) }

// flagTable holds the arguments FuzzFlags draws from ("" leaves one
// out): a log, files that are no log, and a second path. A TestRun row's
// arguments are all here.
var flagTable = clitest.Table{
	{"testdata/run.darshan.gz", "", "testdata/truncated.darshan.gz", "testdata/run.json", ".", "/dev/null", "nonexistent.darshan.gz", "-h"},
	{"", "extra", "testdata/run.darshan.gz"},
}

// FuzzFlags drives run with the arguments flagTable picks and holds
// every exit to the convention; tier-1 runs only its seeds, TestRun's
// rows.
func FuzzFlags(f *testing.F) {
	clitest.Fuzz(f, run, runRows, flagTable, "darshan-parser", "# darshan-sim ")
}
