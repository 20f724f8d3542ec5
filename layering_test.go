package picmcio

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// modulePath is go.mod's module line: the prefix of every import of one of
// this module's packages.
const modulePath = "picmcio"

// layers lists every package under internal/, lowest first: the order the
// bytes of a BIT1 run cross them in, then what is built on a run. A
// package imports only packages above its own line. DESIGN.md's sections
// and README.md's Layout table follow the same order (TestLayering).
var layers = []string{
	"units",       // byte and time quantities
	"xrand",       // seeded random streams
	"sim",         // discrete-event kernel
	"mpisim",      // simulated MPI
	"pfs",         // the file-system front end
	"lustre",      // } the three pfs.Backend
	"nfs",         // } cost models
	"cephfs",      // }
	"burst",       // node-local staging tier over a backend
	"posix",       // descriptors, with the monitoring hook
	"stdio",       // C-stdio buffering
	"darshan",     // the monitor behind the hook
	"compress",    // Blosc/bzip2 codecs
	"adios2",      // BP4 engine, aggregation, operators
	"openpmd",     // series, iterations, records
	"workload",    // BIT1's I/O sizing
	"bit1",        // the application and the paper's adaptor
	"ior",         // the reference benchmark
	"fault",       // node kills and the restart ledger
	"ckptopt",     // checkpoint-interval optimizer
	"cluster",     // machine presets and the job launcher
	"jobs",        // co-scheduled jobs on one machine
	"sweep",       // parameter grids and campaigns
	"sched",       // batch scheduler
	"experiments", // one runner per artifact
}

// source is one parsed Go file of the module.
type source struct {
	name string // slash-separated, from the module root
	test bool   // a _test.go file
	file *ast.File
}

// dir is the directory of the file's package, "." for the root's.
func (s *source) dir() string { return path.Dir(s.name) }

// internalPkg is the file's package under internal/, "" if it is not there.
func (s *source) internalPkg() string {
	rest, ok := strings.CutPrefix(s.dir(), "internal/")
	if !ok {
		return ""
	}
	return rest
}

// imported is one of the module's own packages a file imports.
type imported struct {
	dir   string // from the module root
	local string // the name the file knows it by
	line  int
}

// imports lists the module's own packages the file imports.
func (s *source) imports(fset *token.FileSet) []imported {
	var out []imported
	for _, im := range s.file.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		dir, ok := strings.CutPrefix(p, modulePath+"/")
		if !ok {
			continue
		}
		local := path.Base(dir)
		if im.Name != nil {
			local = im.Name.Name
		}
		out = append(out, imported{dir, local, fset.Position(im.Pos()).Line})
	}
	return out
}

// parseSources parses files, a map from name to Go source.
func parseSources(files map[string]string) (*token.FileSet, []*source, error) {
	fset := token.NewFileSet()
	var out []*source
	for name, src := range files {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, &source{name: name, test: strings.HasSuffix(name, "_test.go"), file: f})
	}
	slices.SortFunc(out, func(a, b *source) int { return strings.Compare(a.name, b.name) })
	return fset, out, nil
}

// parseModule parses every Go file under the working directory, the
// module's root.
func parseModule(t *testing.T) (*token.FileSet, []*source) {
	t.Helper()
	files := map[string]string{}
	err := fs.WalkDir(os.DirFS("."), ".", func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && name != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return fs.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(name, ".go") {
			src, err := os.ReadFile(name)
			files[name] = string(src)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fset, srcs, err := parseSources(files)
	if err != nil {
		t.Fatal(err)
	}
	return fset, srcs
}

// checkLayering returns, as "file:line: what", every way the files break
// the order: a package under internal/ that is not in it (or one in it that
// has no files), a non-test file importing a package at or below its own
// place, and any file under internal/ importing cmd/, examples/ or
// benchmark/.
func checkLayering(order []string, fset *token.FileSet, srcs []*source) []string {
	rank := map[string]int{}
	for i, p := range order {
		rank[p] = i
	}
	var bad []string
	seen := map[string]bool{}
	for _, s := range srcs {
		pkg := s.internalPkg()
		if pkg == "" {
			continue
		}
		at, declared := rank[pkg]
		if !declared && !seen[pkg] {
			bad = append(bad, fmt.Sprintf("%s:1: package internal/%s is not in the layers list", s.name, pkg))
		}
		seen[pkg] = true
		for _, im := range s.imports(fset) {
			dep, internal := strings.CutPrefix(im.dir, "internal/")
			switch to, ok := rank[dep]; {
			case !internal:
				bad = append(bad, fmt.Sprintf("%s:%d: internal/%s imports %s, which is built on internal/", s.name, im.line, pkg, im.dir))
			case !ok:
				bad = append(bad, fmt.Sprintf("%s:%d: imports internal/%s, which is not in the layers list", s.name, im.line, dep))
			case declared && !s.test && to >= at:
				bad = append(bad, fmt.Sprintf("%s:%d: internal/%s imports internal/%s, which is above it", s.name, im.line, pkg, dep))
			}
		}
	}
	for _, p := range order {
		if !seen[p] {
			bad = append(bad, fmt.Sprintf("layers: internal/%s has no files", p))
		}
	}
	slices.Sort(bad)
	return bad
}

// pkgMention finds package names written in backticks: `internal/sim`, or
// a bare `lustre` where a heading has already said internal/.
var pkgMention = regexp.MustCompile("`(?:internal/)?([a-z0-9]+)`")

// mentioned lists the layers named in text, in the order they appear.
func mentioned(order []string, text string) []string {
	var out []string
	for _, m := range pkgMention.FindAllStringSubmatch(text, -1) {
		if slices.Contains(order, m[1]) {
			out = append(out, m[1])
		}
	}
	return out
}

// checkDocOrder reports where the packages a document names, got, top to
// bottom, depart from the order.
func checkDocOrder(doc string, order, got []string) []string {
	var bad []string
	for i := 1; i < len(got); i++ {
		if slices.Index(order, got[i]) < slices.Index(order, got[i-1]) {
			bad = append(bad, fmt.Sprintf("%s names %s after %s, which is above it in the layers list", doc, got[i], got[i-1]))
		}
	}
	return bad
}

// The tree is the layer chain: no package under internal/ imports one
// above it, or anything built on internal/, and the two documents that
// walk the packages do it in the same order.
func TestLayering(t *testing.T) {
	fset, srcs := parseModule(t)
	bad := checkLayering(layers, fset, srcs)

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, line := range strings.Split(string(design), "\n") {
		if strings.HasPrefix(line, "## ") {
			headings = append(headings, line)
		}
	}
	bad = append(bad, checkDocOrder("DESIGN.md's section headings", layers, mentioned(layers, strings.Join(headings, "\n")))...)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	_, table, _ := strings.Cut(string(readme), "\n## Layout\n")
	table, _, _ = strings.Cut(table, "\n## ")
	for _, line := range strings.Split(table, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 {
			rows = append(rows, cells[1])
		}
	}
	if got := mentioned(layers, strings.Join(rows, "\n")); !slices.Equal(got, layers) {
		bad = append(bad, fmt.Sprintf("README.md's Layout table names %v, want every layer once, in order: %v", got, layers))
	}

	if len(bad) > 0 {
		t.Errorf("%d layering violations:\n  %s\nfix: import downwards only — move the code, or the package's line in layers (layering_test.go), and keep DESIGN.md's sections and README.md's Layout rows in that order",
			len(bad), strings.Join(bad, "\n  "))
	}
}

func TestCheckLayering(t *testing.T) {
	order := []string{"low", "mid", "top"}
	base := map[string]string{
		"internal/low/low.go": "package low",
		"internal/mid/mid.go": "package mid\nimport _ \"picmcio/internal/low\"",
		"internal/top/top.go": "package top\nimport (\n_ \"fmt\"\n_ \"picmcio/internal/mid\"\n)",
		"cmd/tool/main.go":    "package main\nimport _ \"picmcio/internal/top\"",
	}
	for _, tc := range []struct {
		name string
		add  map[string]string
		want []string // a substring of each violation, in order
	}{
		{name: "clean"},
		{name: "a test may look up", add: map[string]string{
			"internal/low/low_test.go": "package low\nimport _ \"picmcio/internal/top\""}},
		{name: "upward import", add: map[string]string{
			"internal/low/up.go": "package low\n\nimport _ \"picmcio/internal/mid\""},
			want: []string{"internal/low/up.go:3: internal/low imports internal/mid, which is above it"}},
		{name: "undeclared package", add: map[string]string{
			"internal/new/new.go": "package new",
			"internal/top/use.go": "package top\nimport _ \"picmcio/internal/new\""},
			want: []string{"internal/new/new.go:1: package internal/new is not in the layers list",
				"internal/top/use.go:2: imports internal/new, which is not in the layers list"}},
		{name: "internal imports cmd", add: map[string]string{
			"internal/top/cli.go": "package top\nimport _ \"picmcio/cmd/tool\""},
			want: []string{"internal/top/cli.go:2: internal/top imports cmd/tool, which is built on internal/"}},
		{name: "even a test may not import benchmark", add: map[string]string{
			"internal/top/b_test.go": "package top\nimport _ \"picmcio/benchmark\""},
			want: []string{"internal/top/b_test.go:2: internal/top imports benchmark"}},
		{name: "listed package gone", add: map[string]string{"internal/mid/mid.go": "", "internal/top/top.go": "package top"},
			want: []string{"layers: internal/mid has no files"}},
	} {
		files := map[string]string{}
		for name, src := range base {
			files[name] = src
		}
		for name, src := range tc.add {
			if files[name] = src; src == "" {
				delete(files, name)
			}
		}
		fset, srcs, err := parseSources(files)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := checkLayering(order, fset, srcs)
		if len(got) != len(tc.want) {
			t.Errorf("%s: violations %q, want %d", tc.name, got, len(tc.want))
			continue
		}
		for i := range got {
			if !strings.Contains(got[i], tc.want[i]) {
				t.Errorf("%s: violation %q, want it to contain %q", tc.name, got[i], tc.want[i])
			}
		}
	}

	if got := mentioned(order, "## 2. Things (`internal/mid`, `top`) and `other`"); !slices.Equal(got, []string{"mid", "top"}) {
		t.Errorf("mentioned: %v", got)
	}
	for _, tc := range []struct {
		got  []string
		want int
	}{
		{got: []string{"low", "mid", "mid", "top"}},
		{got: []string{"low", "top", "mid"}, want: 1},
	} {
		if bad := checkDocOrder("doc", order, tc.got); len(bad) != tc.want {
			t.Errorf("checkDocOrder(%v): %q, want %d violations", tc.got, bad, tc.want)
		}
	}
}
