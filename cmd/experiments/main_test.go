package main

import (
	"bytes"
	"strings"
	"testing"

	"picmcio/clitest"
)

const fig3 = "-run fig3 -node-list 1 -ranks-per-node 8 -diag-epochs 1"

// runRows are the argument sets TestRun pins: stdout against a fixture
// captured from the command's binary before it ran as a function, or a
// refusal's exit code and first stderr line. They are FuzzFlags'
// seeds too.
var runRows = []clitest.Row{
	{Args: "-list", Golden: "list.txt"},
	{Args: "-run lst1", Golden: "lst1.txt"},
	{Args: "-run tab1", Golden: "tab1.txt"},
	{Args: "-run tab1,lst1", Golden: "tab1_lst1.txt"},
	{Args: "-json -run lst1", Golden: "lst1_json.txt"},
	{Args: "-json -run figsizing", Golden: "figsizing_json.txt"},
	{Args: fig3, Golden: "fig3_1node.txt"},
	// The campaign and queue artifacts at CLI defaults; their goldens run
	// the suite's smaller campaigns.
	{Args: "-run campfail", Golden: "campfail.txt"},
	{Args: "-run campopt -campaign-mtbf 500", Golden: "campopt_mtbf500.txt"},
	{Args: "-run figinterval", Golden: "figinterval.txt"},
	{Args: "-run figfair", Golden: "figfair.txt"},
	{Args: "-json -run figfair", Golden: "figfair_json.txt"},

	// Options reads a zero scale as its default, and a node count below 1
	// is no machine: refused, not run.
	{Args: "-run fig3 -node-list 1 -ranks-per-node 0", Code: 1, Stderr: "experiments: -ranks-per-node 0: need at least 1"},
	{Args: "-run fig3 -node-list 1 -diag-epochs 0", Code: 1, Stderr: "experiments: -diag-epochs 0: need at least 1"},
	{Args: "-run fig6 -nodes 0", Code: 1, Stderr: "experiments: -nodes 0: need at least 1"},
	{Args: "-run fig6 -nodes -1", Code: 1, Stderr: "experiments: -nodes -1: need at least 1"},
	{Args: "-run fig3 -node-list 0", Code: 1, Stderr: `experiments: -node-list 0: "0" is not a node count of 1 or more`},
	{Args: "-run fig3 -node-list 30,-2", Code: 1, Stderr: `experiments: -node-list 30,-2: "-2" is not a node count of 1 or more`},
	{Args: "-run fig3 -node-list 1,,2", Code: 1, Stderr: `experiments: -node-list 1,,2: "" is not a node count of 1 or more`},
	{Args: fig3 + " -parallel 0", Code: 1, Stderr: "experiments: -parallel 0: need at least 1 worker"},
	{Args: "-run figsched -sched-jobs -5", Code: 1, Stderr: "experiments: -sched-jobs -5: need 0 (the default) or more"},
	{Args: "-run campfail -campaign-runs -1", Code: 1, Stderr: "experiments: -campaign-runs -1: need 0 (auto-size) or more"},
	{Args: "-run campfail -campaign-mtbf -1", Code: 1, Stderr: "experiments: -campaign-mtbf -1: need 0 (the machine preset) or more"},
	{Args: "-run campfail -campaign-mtbf NaN", Code: 1, Stderr: "experiments: -campaign-mtbf NaN: need 0 (the machine preset) or more"},
	{Args: "-run campfail -campaign-mtbf +Inf", Code: 1, Stderr: "experiments: -campaign-mtbf +Inf: need a finite number of hours"},
	// An artifact is named with -run, and a typo prints nothing at all.
	{Args: "fig3", Code: 1, Stderr: `experiments: unexpected argument "fig3": name artifacts with -run`},
	{Args: "-run lst1,nope", Code: 1, Stderr: `experiments: unknown artifact "nope" (see -list)`},
	{Args: "-json -run tab1,lst1", Code: 1, Stderr: "experiments: -json emits one JSON document; run one artifact per invocation (got 2)"},
	{Args: "-cpuprofile testdata/missing/cpu.pprof -run tab1", Code: 1, Stderr: "experiments: open testdata/missing/cpu.pprof: no such file or directory"},
	// -optimal was retired: its campaign is campopt.
	{Args: "-optimal -run campfail", Code: 2, Stderr: "flag provided but not defined: -optimal"},
}

func TestRun(t *testing.T) { clitest.Rows(t, run, runRows) }

// TestHelp: -h prints the flags and exits 0.
func TestHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || stdout.Len() > 0 {
		t.Fatalf("exit %d with %d bytes of stdout, want 0 and none", code, stdout.Len())
	}
	if !strings.Contains(stderr.String(), "-node-list") {
		t.Errorf("help does not list -node-list:\n%s", stderr.String())
	}
}

// flagTable holds the arguments FuzzFlags draws from, one list per flag:
// bad numbers, misspelt names and lists, and cheap artifacts. Every list
// sets its flag, because the defaults are paper scale (-run all, 200
// nodes, 128 ranks, 5 epochs); no value runs past 2 nodes × 8 ranks × 2
// epochs. The last list is what trails the flags. A TestRun row's
// arguments are all here.
var flagTable = clitest.Table{
	{"-run lst1", "-run tab1", "-run fig3", "-run fig8", "-run figsizing", "-run figinterval",
		"-run nope", "-run lst1,nope", "-run tab1,lst1", "-run fig6", "-run figsched", "-run campfail", "-run ,",
		"-run campopt", "-run figfair"},
	{"-nodes 1", "-nodes 2", "-nodes 0", "-nodes -1", "-nodes NaN"},
	{"-node-list 1", "-node-list 1,2", "-node-list 0", "-node-list 30,-2", "-node-list 1,,2", "-node-list x"},
	{"-ranks-per-node 8", "-ranks-per-node 1", "-ranks-per-node 0", "-ranks-per-node -8"},
	{"-diag-epochs 1", "-diag-epochs 2", "-diag-epochs 0", "-diag-epochs -2"},
	{"", "-parallel 2", "-parallel 0", "-parallel 1"},
	{"", "-sched-jobs -5", "-sched-jobs 10"},
	{"", "-campaign-runs -1", "-campaign-runs 10"},
	{"", "-campaign-mtbf -1", "-campaign-mtbf NaN", "-campaign-mtbf 500", "-campaign-mtbf +Inf"},
	{"", "-json", "-json=false", "-seed 7", "-list", "-cpuprofile testdata/missing/cpu.pprof"},
	{"", "fig3", "-h", "-optimal", "-nodes"},
}

// FuzzFlags drives run with the arguments flagTable picks and holds
// every exit to the convention; tier-1 runs only its seeds, TestRun's
// rows.
func FuzzFlags(f *testing.F) {
	clitest.Fuzz(f, run, runRows, flagTable, "experiments", "")
}
