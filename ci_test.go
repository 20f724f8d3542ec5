package picmcio

import (
	"fmt"
	"go/ast"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// testFuncs maps each package directory, from the module root, to the
// names of the Test, Fuzz and Benchmark functions its _test.go files
// declare.
func testFuncs(srcs []*source) map[string][]string {
	out := map[string][]string{}
	for _, s := range srcs {
		if !s.test {
			continue
		}
		for _, d := range s.file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					out[s.dir()] = append(out[s.dir()], fn.Name.Name)
				}
			}
		}
	}
	return out
}

// ciPattern is a go test command's -run or -fuzz pattern, quoted or not.
var ciPattern = regexp.MustCompile(`-(run|fuzz) (?:'([^']*)'|(\S+))`)

// checkCINames returns, as "line N: what", every |-alternative of a -run or
// -fuzz pattern of a go test command in the workflow text that matches no
// test function of the packages the command names ("./..." names them
// all). A '^$' alternative, which runs nothing on purpose, is skipped.
func checkCINames(workflow string, funcs map[string][]string) []string {
	var bad []string
	for i, line := range lines(workflow) {
		if !strings.Contains(line, "go test") {
			continue
		}
		var names []string
		for _, f := range strings.Fields(line) {
			dir, ok := strings.CutPrefix(f, "./")
			if !ok {
				continue
			}
			if dir == "..." {
				for _, fs := range funcs {
					names = append(names, fs...)
				}
				continue
			}
			names = append(names, funcs[dir]...)
		}
		for _, m := range ciPattern.FindAllStringSubmatch(line, -1) {
			for _, alt := range strings.Split(m[2]+m[3], "|") {
				if alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					bad = append(bad, fmt.Sprintf("line %d: -%s alternative %q: %v", i+1, m[1], alt, err))
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					bad = append(bad, fmt.Sprintf("line %d: -%s alternative %q names no test function of the step's packages", i+1, m[1], alt))
				}
			}
		}
	}
	return bad
}

// TestCIRunNamesMatchTests: every test a CI step runs by name exists, so a
// renamed or deleted test cannot drop out of its step in silence.
func TestCIRunNamesMatchTests(t *testing.T) {
	_, srcs := parseModule(t)
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range checkCINames(string(ci), testFuncs(srcs)) {
		t.Error("ci.yml " + b)
	}
}

func TestCheckCINames(t *testing.T) {
	funcs := map[string][]string{
		"internal/a": {"TestOpenAllocations", "FuzzParse"},
		"internal/b": {"TestRankFootprint"},
	}
	workflow := strings.Join([]string{
		"run: go test -count=1 -run 'OpenAllocations|Footprint' ./internal/a ./internal/b",
		"run: go test -run '^TestRankFootprint$' ./internal/a",
		"run: go test ./internal/a -run '^$' -fuzz FuzzParse -fuzztime 20s",
		"run: go test -run 'Gone|Footprint' ./...",
		"run: go test -fuzz FuzzMissing ./internal/b",
	}, "\n")
	want := []string{
		`line 2: -run alternative "^TestRankFootprint$" names no test function of the step's packages`,
		`line 4: -run alternative "Gone" names no test function of the step's packages`,
		`line 5: -fuzz alternative "FuzzMissing" names no test function of the step's packages`,
	}
	if got := checkCINames(workflow, funcs); !slices.Equal(got, want) {
		t.Errorf("got\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
