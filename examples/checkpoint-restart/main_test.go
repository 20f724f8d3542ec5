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
	{Args: "", Golden: "direct.txt"},
	{Args: "-burst", Golden: "burst.txt"},
	{Args: "-burst -kill", Golden: "burst_kill.txt"},
	{Args: "-burst -auto-interval", Golden: "burst_auto.txt"},
	{Args: "-auto-interval", Golden: "auto.txt"},

	{Args: "-kill", Code: 1, Stderr: "checkpoint-restart: -kill requires -burst: without staging every checkpoint is already PFS-durable"},
	{Args: "-burst -kill -auto-interval", Code: 1, Stderr: "checkpoint-restart: -auto-interval needs the timing passes the -kill flow skips: run them separately"},
	// An MTBF ckptopt cannot price is refused before any pass runs.
	{Args: "-mtbf 0 -auto-interval", Code: 1, Stderr: "checkpoint-restart: -mtbf 0: need a positive, finite number of seconds"},
	{Args: "-mtbf NaN", Code: 1, Stderr: "checkpoint-restart: -mtbf NaN: need a positive, finite number of seconds"},
	{Args: "-bogus", Code: 2, Stderr: "flag provided but not defined: -bogus"},
	// A setting given without its flag is not ignored.
	{Args: "x", Code: 2, Stderr: `checkpoint-restart: unexpected argument "x": every setting is a flag`},
}

func TestRun(t *testing.T) { clitest.Rows(t, run, runRows) }

// flagTable holds the arguments FuzzFlags draws from, one list per flag
// ("" leaves it out): every mode and bad MTBFs. The last list is what
// trails the flags. A TestRun row's arguments are all here.
var flagTable = clitest.Table{
	{"", "-burst", "-burst=false"},
	{"", "-kill"},
	{"", "-auto-interval"},
	{"", "-mtbf 0", "-mtbf NaN", "-mtbf -1", "-mtbf +Inf", "-mtbf 1e-9", "-mtbf 10", "-mtbf x"},
	{"", "x", "-h", "-bogus", "-mtbf"},
}

// FuzzFlags drives run with the arguments flagTable picks and holds
// every exit to the convention; tier-1 runs only its seeds, TestRun's
// rows.
func FuzzFlags(f *testing.F) {
	clitest.Fuzz(f, run, runRows, flagTable, "checkpoint-restart", "")
}
