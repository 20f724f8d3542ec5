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
	{Args: "", Golden: "bpls.txt"},

	// It reads no host file: an argument is a usage error.
	{Args: "x", Code: 2, Stderr: "usage: bpls (no arguments: it lists the demonstration series it writes)"},
	{Args: "-h", Code: 2, Stderr: "usage: bpls (no arguments: it lists the demonstration series it writes)"},
}

func TestRun(t *testing.T) { clitest.Rows(t, run, runRows) }

// flagTable holds the arguments FuzzFlags draws from ("" leaves one
// out). A TestRun row's arguments are all here.
var flagTable = clitest.Table{
	{"", "x", "-h", "--", "/demo.bp4"},
	{"", "-l"},
}

// FuzzFlags drives run with the arguments flagTable picks and holds
// every exit to the convention; tier-1 runs only its seeds, TestRun's
// rows.
func FuzzFlags(f *testing.F) {
	clitest.Fuzz(f, run, runRows, flagTable, "bpls", "File info:")
}
