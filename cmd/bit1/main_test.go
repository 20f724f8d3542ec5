package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun runs the command in process. A run that succeeds must print
// its golden stdout byte for byte (captured from the launch this command
// had before it went through experiments.Options.RunBIT1; a divergence
// is saved as testdata/<name>.got.txt). A refusal must exit with its
// code and name what it refuses in its first stderr line, before any
// output.
func TestRun(t *testing.T) {
	const (
		scale = "-nodes 2 -ranks-per-node 8 -diag-epochs 2"
		deck  = "-nodes 2 -ranks-per-node 8 -input testdata/deck.inp"
	)
	for _, tc := range []struct {
		args   string
		golden string // stdout, exit 0
		code   int    // otherwise: the exit code ...
		stderr string // ... and the first stderr line
	}{
		{args: scale, golden: "openpmd.txt"},
		{args: scale + " -mode original", golden: "original.txt"},
		{args: scale + " -compressor blosc", golden: "blosc.txt"},
		{args: scale + " -compressor bzip2 -aggregators 1", golden: "bzip2_1aggr.txt"},
		// none is no operator: the uncompressed run, byte for byte.
		{args: scale + " -compressor none", golden: "openpmd.txt"},
		{args: deck, golden: "input.txt"},
		{args: deck + " -mode original", golden: "input_original.txt"},
		{args: "-machine vega -seed 7 " + scale, golden: "vega_seed7.txt"},
		{args: "-machine discoverer -nodes 1 -ranks-per-node 8 -diag-epochs 1 -mode original", golden: "discoverer_original.txt"},

		{args: scale + " -mode orignal", code: 1, stderr: `bit1: bit1: unknown I/O mode "orignal" (want original or openpmd)`},
		{args: scale + " -aggregators -3", code: 1, stderr: "bit1: -aggregators -3: want a count, or 0 for one per node"},
		{args: scale + " -mode original -aggregators 3", code: 1, stderr: "bit1: -aggregators 3: an openPMD setting; -mode original has none"},
		{args: scale + " -mode original -compressor bzip2", code: 1, stderr: "bit1: -compressor bzip2: an openPMD setting; -mode original has none"},
		{args: deck + " -diag-epochs 7", code: 1, stderr: "bit1: -diag-epochs 7: the -input deck sets the run length"},
		// Options reads a zero scale as its default: refused, not run.
		{args: "-nodes 0 -ranks-per-node 8 -diag-epochs 2", code: 1, stderr: "bit1: -nodes 0: need at least 1"},
		{args: "-nodes 2 -ranks-per-node 0 -diag-epochs 2", code: 1, stderr: "bit1: -ranks-per-node 0: need at least 1"},
		{args: "-nodes 2 -ranks-per-node 8 -diag-epochs 0", code: 1, stderr: "bit1: -diag-epochs 0: need at least 1"},
		{args: scale + " -bogus", code: 2, stderr: "flag provided but not defined: -bogus"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(strings.Fields(tc.args), &stdout, &stderr)
			if tc.golden == "" {
				first, _, _ := strings.Cut(stderr.String(), "\n")
				if code != tc.code || first != tc.stderr || stdout.Len() > 0 {
					t.Fatalf("exit %d, stderr %q, %d bytes of stdout; want exit %d, stderr %q, none",
						code, first, stdout.Len(), tc.code, tc.stderr)
				}
				return
			}
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := stdout.String(); got != string(want) {
				name := filepath.Join("testdata", strings.TrimSuffix(tc.golden, ".txt")+".got.txt")
				if err := os.WriteFile(name, stdout.Bytes(), 0o644); err != nil {
					t.Logf("could not save diverging output: %v", err)
				}
				t.Fatalf("stdout differs from testdata/%s (saved as %s):\n%s", tc.golden, name, got)
			}
		})
	}
}

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
