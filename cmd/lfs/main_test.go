package main

import (
	"bytes"
	"strings"
	"testing"

	"picmcio/clitest"
	"picmcio/internal/experiments"
)

// runRows are the argument sets TestRun pins: stdout against a fixture
// captured from the command's binary before it ran as a function, or a
// refusal's exit code and first stderr line. They are FuzzFlags'
// seeds too.
var runRows = []clitest.Row{
	{Args: "setstripe -c 8 -S 16M io_openPMD", Golden: "setstripe.txt"},
	{Args: "getstripe io_openPMD/dat_file.bp4/data.0", Golden: "getstripe.txt"},
	{Args: "setstripe -c -1 -S 4M out", Golden: "all_osts.txt"},

	{Args: "setstripe -c 0 -S 1M io", Code: 1, Stderr: "lfs: lustre: stripe count 0 out of range [1,48]"},
	{Args: "setstripe -S 1x io", Code: 1, Stderr: `lfs: units: bad size "1x": strconv.ParseFloat: parsing "1X": invalid syntax`},
	{Args: "", Code: 2, Stderr: "usage:"},
	{Args: "stripe", Code: 2, Stderr: "usage:"},
	{Args: "setstripe -c 8", Code: 2, Stderr: "usage:"},
	{Args: "getstripe", Code: 2, Stderr: "usage:"},
	{Args: "getstripe a b", Code: 2, Stderr: "usage:"},
	{Args: "getstripe -h", Code: 2, Stderr: "usage:"},
	{Args: "setstripe -q io", Code: 2, Stderr: "flag provided but not defined: -q"},
}

func TestRun(t *testing.T) { clitest.Rows(t, run, runRows) }

// TestSetstripePrintsListing1: the paper's Table III command prints the
// layout of its Listing 1, which -run lst1 prints under a heading.
func TestSetstripePrintsListing1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("setstripe -c 8 -S 16M io_openPMD"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	want, err := experiments.Listing1()
	if err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != want {
		t.Fatalf("setstripe printed\n%s\nListing 1 is\n%s", got, want)
	}
}

// flagTable holds the arguments FuzzFlags draws from, one list per
// position ("" leaves it out): the verb, bad stripe counts and sizes, and
// paths, misplaced flags and extra paths. A TestRun row's arguments are
// all here.
var flagTable = clitest.Table{
	{"setstripe", "getstripe", "", "stripe", "-h"},
	{"", "-c 8", "-c 0", "-c -1", "-c 49", "-c NaN", "-c 99999999999999999999"},
	{"", "-S 16M", "-S 1M", "-S 1x", "-S 0", "-S 4M", "-S -1", "-S 1e30"},
	{"io_openPMD", "", "io_openPMD/dat_file.bp4/data.0", "-q io", "a b", "out", "io", "/", ".", "-h"},
}

// FuzzFlags drives run with the arguments flagTable picks and holds
// every exit to the convention; tier-1 runs only its seeds, TestRun's
// rows.
func FuzzFlags(f *testing.F) {
	clitest.Fuzz(f, run, runRows, flagTable, "lfs", "")
}
