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
	{Args: "-nodes 2 -n 16", Golden: "n16.txt"},
	{Args: "-nodes 2 -n 16 -F", Golden: "n16_fpp.txt"},
	{Args: "-machine vega -nodes 1 -n 8 -C -e", Golden: "vega_n8.txt"},
	// The command line names every setting the run was made with; before
	// -r, -t and -b were named, the rest of this stdout was the same.
	{Args: "-nodes 2 -n 16 -r -t 2m -b 8m -F -C -e", Golden: "n16_read_sizes.txt"},

	{Args: "-n 0", Code: 1, Stderr: "ior: cluster: need at least one rank (got 0)"},
	{Args: "-nodes 0 -n 16", Code: 1, Stderr: "ior: cluster: need at least one node"},
	{Args: "-a HDF5 -n 4", Code: 1, Stderr: "ior: ior: API HDF5 not supported (POSIX only)"},
	{Args: "-t 0 -n 4", Code: 1, Stderr: "ior: ior: transfer and block sizes must be positive"},
	{Args: "-n 4 -t 32m -b 16m", Code: 1, Stderr: "ior: -b 16m is not a multiple of -t 32m"},
	{Args: "-b NaN -n 4", Code: 1, Stderr: `ior: units: size "NaN" is not a byte count from 0 to 9223372036854775807`},
	{Args: "-machine nope -n 4", Code: 1, Stderr: `ior: cluster: unknown machine "nope"`},
	{Args: "-bogus", Code: 2, Stderr: "flag provided but not defined: -bogus"},
	// A setting given without its flag is not ignored.
	{Args: "-nodes 2 -n 16 extra", Code: 2, Stderr: `ior: unexpected argument "extra": every setting is a flag`},
}

func TestRun(t *testing.T) { clitest.Rows(t, run, runRows) }

// flagTable holds the arguments FuzzFlags draws from, one list per flag
// ("" leaves it out): bad counts and sizes, misspelt choices. -n is always
// set, because its default is 128 tasks; no value runs past 2 nodes ×
// 16 tasks. The last list is what trails the flags. A TestRun row's
// arguments are all here.
var flagTable = clitest.Table{
	{"-n 16", "-n 8", "-n 1", "-n 4", "-n 0", "-n -1", "-n NaN"},
	{"", "-nodes 2", "-nodes 1", "-nodes 0", "-nodes -1"},
	{"", "-a HDF5", "-a posix", "-a POSIX"},
	{"", "-F", "-F=false", "-F=maybe"},
	{"", "-C -e", "-C", "-e"},
	{"", "-r"},
	{"", "-t 2m", "-t 0", "-t 1e3", "-t -1m", "-t 32m", "-t 1x"},
	{"", "-b 8m", "-b 16m", "-b NaN", "-b 0", "-b 1k"},
	{"", "-machine vega", "-machine discoverer", "-machine nope"},
	{"", "extra", "-h", "-bogus", "-n"},
}

// FuzzFlags drives run with the arguments flagTable picks and holds
// every exit to the convention; tier-1 runs only its seeds, TestRun's
// rows.
func FuzzFlags(f *testing.F) {
	clitest.Fuzz(f, run, runRows, flagTable, "ior", "command:   srun -n ")
}
