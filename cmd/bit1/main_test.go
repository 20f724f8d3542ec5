package main

import (
	"bytes"
	"slices"
	"strconv"
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

// fuzzFlag is one flag FuzzFlags sets and the values it draws from.
type fuzzFlag struct {
	name   string   // "" for the trailing argument
	values []string // "" leaves the flag out
}

// flagTable holds each flag's values: bad numbers (negative, zero, NaN,
// ±Inf, out of range), misspelt choices, and the settings that conflict
// with -input or -mode original. No value starts a run past 2 nodes × 8
// ranks; the run length is capped in fuzzArgs. A TestRun row's values are
// all here.
var flagTable = []fuzzFlag{
	{"-machine", []string{"", "dardel", "vega", "discoverer", "Dardel", "vgea"}},
	{"-nodes", []string{"", "1", "2", "0", "-1", "0x2", "NaN", "+Inf", "-Inf", "99999999999999999999"}},
	{"-ranks-per-node", []string{"8", "1", "0", "-8", "NaN", "Inf", "99999999999999999999"}},
	{"-diag-epochs", []string{"", "1", "2", "7", "0", "-2", "NaN", "-Inf", "1e1", "99999999999999999999"}},
	{"-mode", []string{"", "original", "openpmd", "orignal", "OpenPMD"}},
	{"-aggregators", []string{"", "1", "3", "0", "-3", "16", "1000000", "NaN", "+Inf", "99999999999999999999"}},
	{"-compressor", []string{"", "blosc", "bzip2", "none", "blosk", "BLOSC"}},
	{"-input", []string{"", "testdata/deck.inp", "testdata/missing.inp", "testdata"}},
	{"-seed", []string{"", "7", "0", "-1", "18446744073709551615", "18446744073709551616", "NaN"}},
	{"", []string{"", "-bogus", "-h", "original", "-nodes"}},
}

// fuzzArgs builds the arguments the indices pick, one per flagTable row,
// wrapping. Without a deck the run length is -diag-epochs', so the
// harness caps it: an absent or longer one becomes 2.
func fuzzArgs(idx []uint8) []string {
	val := map[string]string{}
	for i, f := range flagTable {
		val[f.name] = f.values[int(idx[i])%len(f.values)]
	}
	if n, err := strconv.Atoi(val["-diag-epochs"]); val["-input"] == "" && (val["-diag-epochs"] == "" || err == nil && n > 2) {
		val["-diag-epochs"] = "2"
	}
	var args []string
	for _, f := range flagTable {
		switch v := val[f.name]; {
		case v == "":
		case f.name == "":
			args = append(args, v)
		default:
			args = append(args, f.name, v)
		}
	}
	return args
}

// fuzzSeed returns the indices that spell a TestRun row's arguments.
func fuzzSeed(t testing.TB, row string) []uint8 {
	named := func(name string) func(fuzzFlag) bool { return func(f fuzzFlag) bool { return f.name == name } }
	idx := make([]uint8, len(flagTable))
	for args := strings.Fields(row); len(args) > 0; {
		name := args[0]
		if len(args) > 1 && slices.ContainsFunc(flagTable, named(name)) {
			args = args[1:]
		} else {
			name = ""
		}
		j := slices.IndexFunc(flagTable, named(name))
		k := slices.Index(flagTable[j].values, args[0])
		if k < 0 {
			t.Fatalf("%q: flagTable has no %q value %q", row, name, args[0])
		}
		idx[j], args = uint8(k), args[1:]
	}
	return idx
}

// num is the integer args give the named flag as run parses it, def if
// they give none.
func num(args []string, name string, def int64) int64 {
	if i := slices.Index(args, name); i >= 0 && i+1 < len(args) {
		n, _ := strconv.ParseInt(args[i+1], 0, 64)
		return n
	}
	return def
}

// FuzzFlags drives run with flag values from flagTable, the indices
// wrapping: whatever they pick, it exits 0 (a report, or -h), 1 with one
// bit1: line and no report, or 2 with a usage text and no report —
// never a panic or a deadlock, which the kernel reports as a panic. Its
// seeds are TestRun's rows, and tier-1 runs only those.
func FuzzFlags(f *testing.F) {
	for _, row := range runRows {
		idx := fuzzSeed(f, row.Args)
		f.Add(idx[0], idx[1], idx[2], idx[3], idx[4], idx[5], idx[6], idx[7], idx[8], idx[9])
	}
	f.Fuzz(func(t *testing.T, machine, nodes, ranks, epochs, mode, aggregators, compressor, input, seed, trailing uint8) {
		args := fuzzArgs([]uint8{machine, nodes, ranks, epochs, mode, aggregators, compressor, input, seed, trailing})
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		out, errs := stdout.String(), stderr.String()
		switch {
		case code == 0 && slices.Contains(args, "-h"):
			if out != "" || !strings.Contains(errs, "Usage of") {
				t.Fatalf("%q: -h exits 0 with %d bytes of stdout and stderr %q", args, len(out), errs)
			}
		case code == 0:
			if !strings.HasPrefix(out, "machine=") {
				t.Fatalf("%q: exit 0 without a report: %q", args, out)
			}
			if num(args, "-aggregators", 0) > num(args, "-nodes", 1)*num(args, "-ranks-per-node", 128) {
				t.Fatalf("%q: exit 0 with more aggregators than ranks", args)
			}
		case code == 1:
			if out != "" || !strings.HasPrefix(errs, "bit1: ") || strings.Count(errs, "\n") != 1 {
				t.Fatalf("%q: exit 1 with %d bytes of stdout and stderr %q, want one bit1: line", args, len(out), errs)
			}
		case code == 2:
			if out != "" || !strings.Contains(errs, "Usage of") {
				t.Fatalf("%q: exit 2 with %d bytes of stdout and stderr %q, want a usage text", args, len(out), errs)
			}
		default:
			t.Fatalf("%q: exit %d", args, code)
		}
	})
}
