// Package clitest checks a command or an example through its run
// function. Every main under cmd/ and examples/ is
// os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)), and run keeps one exit
// convention: 0 on success (or -h), 1 with one "<name>: " stderr line for
// a refused value or an error, 2 with a usage text. Rows pins a run's
// stdout against a fixture under testdata/, or a refusal by its exit code
// and first stderr line; Fuzz drives run with arguments a Table spells
// and holds every exit to the convention.
package clitest

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Run is a command's run function: it runs on the arguments and returns
// the exit status.
type Run func(args []string, stdout, stderr io.Writer) int

// Row is one argument set a command is checked on.
type Row struct {
	Args   string // split on spaces
	Golden string // the file under testdata/ holding the stdout of exit 0
	Code   int    // otherwise: the exit code ...
	Stderr string // ... and the first stderr line, with no stdout
}

// Rows runs run in process on each row, as a subtest named by its
// arguments. A stdout that differs from its golden is saved as
// testdata/<golden>.got.txt.
func Rows(t *testing.T, run Run, rows []Row) {
	for _, tc := range rows {
		t.Run(tc.Args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(strings.Fields(tc.Args), &stdout, &stderr)
			if tc.Golden == "" {
				first, _, _ := strings.Cut(stderr.String(), "\n")
				if code != tc.Code || first != tc.Stderr || stdout.Len() > 0 {
					t.Fatalf("exit %d, stderr %q, %d bytes of stdout; want exit %d, stderr %q, none",
						code, first, stdout.Len(), tc.Code, tc.Stderr)
				}
				return
			}
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.Golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := stdout.String(); got != string(want) {
				name := filepath.Join("testdata", strings.TrimSuffix(tc.Golden, ".txt")+".got.txt")
				if err := os.WriteFile(name, stdout.Bytes(), 0o644); err != nil {
					t.Logf("could not save diverging output: %v", err)
				}
				t.Fatalf("stdout differs from testdata/%s (saved as %s):\n%s", tc.Golden, name, got)
			}
		})
	}
}

// Table holds the arguments Fuzz draws from: one list per flag or
// position, each entry the arguments it adds ("" adds none). A list's
// first entry is what an input too short to pick one gets.
type Table [][]string

// Args builds the arguments idx picks, one entry per list, wrapping.
func (tb Table) Args(idx []byte) []string {
	var args []string
	for i, values := range tb {
		k := 0
		if i < len(idx) {
			k = int(idx[i]) % len(values)
		}
		args = append(args, strings.Fields(values[k])...)
	}
	return args
}

// Seed returns indices whose arguments hold those of row, each list
// matched at its first entry found in row. It fails t if some argument
// of row is in no list.
func (tb Table) Seed(t testing.TB, row string) []byte {
	idx := make([]byte, len(tb))
	rest := " " + row + " "
	for i, values := range tb {
		for k, v := range values {
			if v != "" && strings.Contains(rest, " "+v+" ") {
				idx[i], rest = byte(k), strings.Replace(rest, " "+v+" ", " ", 1)
				break
			}
		}
	}
	if rest = strings.TrimSpace(rest); rest != "" {
		t.Fatalf("%q: the flag table has no %q", row, rest)
	}
	return idx
}

// Fuzz seeds f with rows and drives run with the arguments tb picks.
// Whatever they are, run must exit 0 with stdout starting with out (and
// not empty), or on -h with none; 1 with one "<name>: " stderr line and
// no stdout; or 2 with a usage text and no stdout — never panic. The
// kernel reports a deadlock as a panic.
func Fuzz(f *testing.F, run Run, rows []Row, tb Table, name, out string) {
	for _, row := range rows {
		f.Add(tb.Seed(f, row.Args))
	}
	f.Fuzz(func(t *testing.T, idx []byte) {
		args := tb.Args(idx)
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		got, errs := stdout.String(), stderr.String()
		usage := strings.Contains(strings.ToLower(errs), "usage")
		switch {
		case code == 0 && slices.Contains(args, "-h"):
			if got != "" || !usage {
				t.Fatalf("%q: -h exits 0 with %d bytes of stdout and stderr %q", args, len(got), errs)
			}
		case code == 0:
			if got == "" || !strings.HasPrefix(got, out) {
				t.Fatalf("%q: exit 0 with stdout %q, want it to start %q", args, got, out)
			}
		case code == 1:
			if got != "" || !strings.HasPrefix(errs, name+": ") || strings.Count(errs, "\n") != 1 {
				t.Fatalf("%q: exit 1 with %d bytes of stdout and stderr %q, want one %s: line and none", args, len(got), errs, name)
			}
		case code == 2:
			if got != "" || !usage {
				t.Fatalf("%q: exit 2 with %d bytes of stdout and stderr %q, want a usage text", args, len(got), errs)
			}
		default:
			t.Fatalf("%q: exit %d", args, code)
		}
	})
}
