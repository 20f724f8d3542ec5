package main

import (
	"testing"

	"picmcio/clitest"
)

// runRows are the argument sets TestRun pins: stdout against a fixture
// captured from the example's binary before it ran as a function, or a
// refusal's exit code and first stderr line. They are FuzzFlags'
// seeds too.
var runRows = []clitest.Row{
	{Args: "", Golden: "default.txt"},
	{Args: "-nodes 256 -jobs 1000", Golden: "n256_j1000.txt"},
	{Args: "-fair -preempt 8 -mtbf 1500", Golden: "fair_preempt_mtbf.txt"},
	{Args: "-jobs 1", Golden: "j1.txt"},

	// Zero turns -preempt and -mtbf off; below that is no setting, and
	// no job stream is empty.
	{Args: "-jobs -5", Code: 1, Stderr: "schedtrace: -jobs -5: need at least 1"},
	{Args: "-jobs 0", Code: 1, Stderr: "schedtrace: -jobs 0: need at least 1"},
	{Args: "-preempt NaN", Code: 1, Stderr: "schedtrace: -preempt NaN: need 0 (off) or more hours"},
	{Args: "-preempt -1", Code: 1, Stderr: "schedtrace: -preempt -1: need 0 (off) or more hours"},
	{Args: "-mtbf -5", Code: 1, Stderr: "schedtrace: -mtbf -5: need 0 (off) or more hours"},
	{Args: "-mtbf NaN", Code: 1, Stderr: "schedtrace: -mtbf NaN: need 0 (off) or more hours"},
	{Args: "-nodes 0", Code: 1, Stderr: "schedtrace: sched: load 1.1 on 0 nodes is not calibratable"},
	// A partition narrower than a job of the stream is refused before
	// the trace's head is printed.
	{Args: "-nodes 1", Code: 1, Stderr: "schedtrace: -nodes 1: the stream's widest job needs 16 nodes"},
	{Args: "-bogus", Code: 2, Stderr: "flag provided but not defined: -bogus"},
	// A setting given without its flag is not ignored.
	{Args: "x", Code: 2, Stderr: `schedtrace: unexpected argument "x": every setting is a flag`},
}

func TestRun(t *testing.T) { clitest.Rows(t, run, runRows) }

// flagTable holds the arguments FuzzFlags draws from, one list per flag
// ("" leaves it out): bad counts and hours. No value runs past 256 nodes
// and 1000 jobs. The last list is what trails the flags. A TestRun row's
// arguments are all here.
var flagTable = clitest.Table{
	{"", "-nodes 256", "-nodes 0", "-nodes 1", "-nodes 16", "-nodes -3"},
	{"", "-jobs 1000", "-jobs 1", "-jobs -5", "-jobs 0", "-jobs 3", "-jobs 1e3"},
	{"", "-fair"},
	{"", "-preempt 8", "-preempt NaN", "-preempt -1", "-preempt +Inf", "-preempt 0"},
	{"", "-mtbf 1500", "-mtbf -5", "-mtbf NaN", "-mtbf +Inf", "-mtbf 1e-3"},
	{"", "x", "-h", "-bogus", "-jobs"},
}

// FuzzFlags drives run with the arguments flagTable picks and holds
// every exit to the convention; tier-1 runs only its seeds, TestRun's
// rows.
func FuzzFlags(f *testing.F) {
	clitest.Fuzz(f, run, runRows, flagTable, "schedtrace", "trace: ")
}
