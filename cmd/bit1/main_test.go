package main

import (
	"bytes"
	"strings"
	"testing"

	"picmcio/clitest"
)

// The arguments TestRun checks. A run that succeeds must print its
// golden stdout byte for byte (captured from the launch this command had
// before it went through experiments.Options.RunBIT1); a refusal must
// exit with its code and name what it refuses in its first stderr line,
// before any output. They are FuzzFlags' seeds too.
const (
	scale = "-nodes 2 -ranks-per-node 8 -diag-epochs 2"
	deck  = "-nodes 2 -ranks-per-node 8 -input testdata/deck.inp"
)

var runRows = []clitest.Row{
	{Args: scale, Golden: "openpmd.txt"},
	{Args: scale + " -mode original", Golden: "original.txt"},
	{Args: scale + " -compressor blosc", Golden: "blosc.txt"},
	{Args: scale + " -compressor bzip2 -aggregators 1", Golden: "bzip2_1aggr.txt"},
	// none is no operator: the uncompressed run, byte for byte.
	{Args: scale + " -compressor none", Golden: "openpmd.txt"},
	{Args: deck, Golden: "input.txt"},
	{Args: deck + " -mode original", Golden: "input_original.txt"},
	{Args: "-machine vega -seed 7 " + scale, Golden: "vega_seed7.txt"},
	{Args: "-machine discoverer -nodes 1 -ranks-per-node 8 -diag-epochs 1 -mode original", Golden: "discoverer_original.txt"},

	{Args: scale + " -mode orignal", Code: 1, Stderr: `bit1: bit1: unknown I/O mode "orignal" (want original or openpmd)`},
	{Args: scale + " -aggregators -3", Code: 1, Stderr: "bit1: -aggregators -3: want a count, or 0 for one per node"},
	{Args: scale + " -mode original -aggregators 3", Code: 1, Stderr: "bit1: -aggregators 3: an openPMD setting; -mode original has none"},
	{Args: scale + " -mode original -compressor bzip2", Code: 1, Stderr: "bit1: -compressor bzip2: an openPMD setting; -mode original has none"},
	{Args: deck + " -diag-epochs 7", Code: 1, Stderr: "bit1: -diag-epochs 7: the -input deck sets the run length"},
	// Options reads a zero scale as its default: refused, not run.
	{Args: "-nodes 0 -ranks-per-node 8 -diag-epochs 2", Code: 1, Stderr: "bit1: -nodes 0: need at least 1"},
	{Args: "-nodes 2 -ranks-per-node 0 -diag-epochs 2", Code: 1, Stderr: "bit1: -ranks-per-node 0: need at least 1"},
	{Args: "-nodes 2 -ranks-per-node 8 -diag-epochs 0", Code: 1, Stderr: "bit1: -diag-epochs 0: need at least 1"},
	{Args: scale + " -bogus", Code: 2, Stderr: "flag provided but not defined: -bogus"},
	// A setting given without its flag is not ignored.
	{Args: scale + " original", Code: 2, Stderr: `bit1: unexpected argument "original": every setting is a flag`},
	// No more aggregators than ranks: a larger count is not clamped.
	{Args: scale + " -aggregators 1000000", Code: 1, Stderr: "bit1: -aggregators 1000000: more than the 16 ranks"},
	{Args: "-nodes 1 -ranks-per-node 2 -diag-epochs 1 -aggregators 3", Code: 1, Stderr: "bit1: -aggregators 3: more than the 2 ranks"},
}

func TestRun(t *testing.T) { clitest.Rows(t, run, runRows) }

// TestHelp: -h prints the flags and exits 0, and -compressor lists none.
func TestHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || stdout.Len() > 0 {
		t.Fatalf("exit %d with %d bytes of stdout, want 0 and none", code, stdout.Len())
	}
	if !strings.Contains(stderr.String(), "compression operator: blosc|bzip2|none") {
		t.Errorf("help does not list -compressor none:\n%s", stderr.String())
	}
}

// flagTable holds the arguments FuzzFlags draws from, one list per flag
// ("" leaves it out): bad numbers (negative, zero, NaN, ±Inf, out of
// range), misspelt choices, and the settings that conflict with -input or
// -mode original. -ranks-per-node is always set, because its default is
// 128; -diag-epochs shares a list with -input, so that no run without a
// deck is longer than 2 epochs, and none is wider than 2 nodes × 8 ranks.
// The last list is what trails the flags. A TestRun row's arguments are
// all here.
var flagTable = clitest.Table{
	{"", "-machine dardel", "-machine vega", "-machine discoverer", "-machine Dardel", "-machine vgea"},
	{"", "-nodes 1", "-nodes 2", "-nodes 0", "-nodes -1", "-nodes 0x2", "-nodes NaN", "-nodes +Inf", "-nodes -Inf", "-nodes 99999999999999999999"},
	{"-ranks-per-node 8", "-ranks-per-node 2", "-ranks-per-node 1", "-ranks-per-node 0", "-ranks-per-node -8",
		"-ranks-per-node NaN", "-ranks-per-node Inf", "-ranks-per-node 99999999999999999999"},
	{"-diag-epochs 2", "-diag-epochs 1", "-diag-epochs 0", "-diag-epochs -2", "-diag-epochs NaN", "-diag-epochs -Inf",
		"-diag-epochs 1e1", "-diag-epochs 99999999999999999999",
		"-input testdata/deck.inp -diag-epochs 7", "-input testdata/deck.inp", "-input testdata/missing.inp", "-input testdata"},
	{"", "-mode original", "-mode openpmd", "-mode orignal", "-mode OpenPMD"},
	{"", "-aggregators 1", "-aggregators 3", "-aggregators 0", "-aggregators -3", "-aggregators 16", "-aggregators 1000000",
		"-aggregators NaN", "-aggregators +Inf", "-aggregators 99999999999999999999"},
	{"", "-compressor blosc", "-compressor bzip2", "-compressor none", "-compressor blosk", "-compressor BLOSC"},
	{"", "-seed 7", "-seed 0", "-seed -1", "-seed 18446744073709551615", "-seed 18446744073709551616", "-seed NaN"},
	{"", "-bogus", "-h", "original", "-nodes"},
}

// FuzzFlags drives run with the arguments flagTable picks and holds
// every exit to the convention; tier-1 runs only its seeds, TestRun's
// rows.
func FuzzFlags(f *testing.F) {
	clitest.Fuzz(f, run, runRows, flagTable, "bit1", "machine=")
}
