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
	"pfs",         // the file-system interfaces and namespace
	"lustre",      // the one file system and its cost model
	"burst",       // node-local staging tier over lustre
	"posix",       // descriptors, with the monitoring hook
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
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution|parser.ParseComments)
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

// The budgets of what a reader is asked to hold.
const (
	designMaxLines   = 700  // DESIGN.md, preamble included
	designMaxSection = 80   // one "## " section of DESIGN.md, heading included
	readmeMaxLines   = 300  // README.md
	changesMaxProse  = 1536 // bytes of a CHANGES.md entry outside its one table
	changesFirstPR   = 16   // the first CHANGES.md entry held to it
)

var (
	designRef    = regexp.MustCompile(`DESIGN(?:\.md)?\s+§(\d+)`)
	sectionNum   = regexp.MustCompile(`^## (\d+)\. `)
	prNumber     = regexp.MustCompile(`\bPR \d+`)
	changesEntry = regexp.MustCompile(`^- (?:\*\*)?PR (\d+)`)
	// pkgNamed finds what a reference's surroundings name in backticks:
	// `internal/jobs`, `jobs.Run`, `cmd/experiments -run …`.
	pkgNamed = regexp.MustCompile("`(?:internal/|cmd/)?([a-z0-9]+)")
)

// docRef is one reference to a DESIGN.md section: where it sits, the
// section's number, and the packages it sits in or talks about.
type docRef struct {
	where   string
	section int
	pkgs    []string
}

// named lists the packages text names in backticks.
func named(text string) []string {
	var out []string
	for _, m := range pkgNamed.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return out
}

// markdownRefs finds the references in a Markdown file, each talking
// about what its paragraph names.
func markdownRefs(name, text string) []docRef {
	var out []docRef
	line := 1
	for _, para := range strings.Split(text, "\n\n") {
		for _, m := range designRef.FindAllStringSubmatchIndex(para, -1) {
			n, _ := strconv.Atoi(para[m[2]:m[3]])
			where := fmt.Sprintf("%s:%d", name, line+strings.Count(para[:m[0]], "\n"))
			out = append(out, docRef{where, n, named(para)})
		}
		line += strings.Count(para, "\n") + 2
	}
	return out
}

// goRefs finds the references in the comments of Go files, each sitting
// in its file's package and talking about what its comment names.
func goRefs(fset *token.FileSet, srcs []*source) []docRef {
	var out []docRef
	for _, s := range srcs {
		for _, cg := range s.file.Comments {
			text := cg.Text()
			for _, m := range designRef.FindAllStringSubmatchIndex(text, -1) {
				n, _ := strconv.Atoi(text[m[2]:m[3]])
				pos := fset.Position(cg.Pos())
				where := fmt.Sprintf("%s:%d", pos.Filename, pos.Line+strings.Count(text[:m[0]], "\n"))
				out = append(out, docRef{where, n, append(named(text), path.Base(s.dir()))})
			}
		}
	}
	return out
}

// lines splits a text into its lines.
func lines(text string) []string { return strings.Split(strings.TrimSuffix(text, "\n"), "\n") }

// checkDocBudgets returns every way the three documents break their
// budgets, and every reference that names no section about its packages.
func checkDocBudgets(order []string, design, readme, changes string, refs []docRef) []string {
	var bad []string
	dl := lines(design)
	if len(dl) > designMaxLines {
		bad = append(bad, fmt.Sprintf("DESIGN.md has %d lines, budget %d", len(dl), designMaxLines))
	}
	headings := map[int]string{}
	start := -1
	section := func(end int) {
		if start >= 0 && end-start > designMaxSection {
			bad = append(bad, fmt.Sprintf("DESIGN.md %q has %d lines, budget %d", dl[start], end-start, designMaxSection))
		}
	}
	for i, l := range dl {
		if strings.HasPrefix(l, "## ") {
			section(i)
			start = i
			if m := sectionNum.FindStringSubmatch(l); m != nil {
				n, _ := strconv.Atoi(m[1])
				headings[n] = l
			}
		}
		if pr := prNumber.FindString(l); pr != "" {
			bad = append(bad, fmt.Sprintf("DESIGN.md:%d names %s: the design is the system as it is, with no history", i+1, pr))
		}
	}
	section(len(dl))

	if n := len(lines(readme)); n > readmeMaxLines {
		bad = append(bad, fmt.Sprintf("README.md has %d lines, budget %d", n, readmeMaxLines))
	}

	pr, prose, tables, inTable := 0, 0, 0, false
	entry := func() {
		if pr >= changesFirstPR && prose > changesMaxProse {
			bad = append(bad, fmt.Sprintf("CHANGES.md PR %d has %d bytes of prose, budget %d", pr, prose, changesMaxProse))
		}
		if pr >= changesFirstPR && tables > 1 {
			bad = append(bad, fmt.Sprintf("CHANGES.md PR %d has %d tables, budget 1", pr, tables))
		}
	}
	for _, l := range lines(changes) {
		if m := changesEntry.FindStringSubmatch(l); m != nil {
			entry()
			pr, _ = strconv.Atoi(m[1])
			prose, tables = 0, 0
		}
		row := strings.HasPrefix(strings.TrimSpace(l), "|")
		if row && !inTable {
			tables++
		}
		if !row {
			prose += len(l)
		}
		inTable = row
	}
	entry()

	for _, r := range refs {
		h, ok := headings[r.section]
		covers := func(p string) bool { return slices.Contains(r.pkgs, p) }
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: DESIGN.md §%d does not exist", r.where, r.section))
		case !slices.ContainsFunc(mentioned(order, h), covers):
			bad = append(bad, fmt.Sprintf("%s: DESIGN.md §%d is %q, about none of %v", r.where, r.section, h, r.pkgs))
		}
	}
	return bad
}

// The docs fit in a head: DESIGN.md, README.md and every CHANGES.md entry
// from changesFirstPR on keep to their budgets, and every "DESIGN.md §N" in
// README.md or a Go comment names a section about the package it sits in
// or talks about.
func TestDocBudgets(t *testing.T) {
	docs := map[string]string{}
	for _, name := range []string{"DESIGN.md", "README.md", "CHANGES.md"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}
	fset, srcs := parseModule(t)
	refs := append(markdownRefs("README.md", docs["README.md"]), goRefs(fset, srcs)...)
	t.Logf("%d references to DESIGN.md sections", len(refs))
	if bad := checkDocBudgets(layers, docs["DESIGN.md"], docs["README.md"], docs["CHANGES.md"], refs); len(bad) > 0 {
		t.Errorf("%d docs over budget:\n  %s\nfix: cut what is named to its budget — DESIGN.md says how each layer works now, README.md what a new user needs, a CHANGES.md entry is one short paragraph and one table — and point a reference at the section about its package",
			len(bad), strings.Join(bad, "\n  "))
	}
}

func TestCheckDocBudgets(t *testing.T) {
	order := []string{"low", "top"}
	section := "## 1. Low (`internal/low`)\n" + strings.Repeat("text\n", designMaxSection-1)
	design := "# DESIGN\n\n" + section + "## 2. Top (`top`)\n"
	head := func(pr int) string { return fmt.Sprintf("- PR %d: ", pr) }
	entry := head(changesFirstPR) + strings.Repeat("x", changesMaxProse-len(head(changesFirstPR))) + "\n  | a |\n  | - |\n"
	ok := docRef{"README.md:3", 2, []string{"top"}}
	for _, tc := range []struct {
		name                    string
		design, readme, changes string
		refs                    []docRef
		want                    []string // a substring of each finding, in order
	}{
		{name: "at budget", design: design, readme: strings.Repeat("\n", readmeMaxLines), changes: entry, refs: []docRef{ok}},
		{name: "a section a line long", design: design + section + "more\n",
			want: []string{`DESIGN.md "## 1. Low (` + "`internal/low`" + `)" has 81 lines`}},
		{name: "too long in all", design: strings.Repeat("\n", designMaxLines+1), want: []string{"DESIGN.md has 701 lines"}},
		{name: "history", design: fmt.Sprintf("merged in PR %d\n", 12), want: []string{"DESIGN.md:1 names PR"}},
		{name: "long readme", readme: strings.Repeat("\n", readmeMaxLines+1), want: []string{"README.md has 301 lines"}},
		{name: "an old entry is not held", changes: head(changesFirstPR-1) + strings.Repeat("x", 2*changesMaxProse)},
		{name: "prose over budget", changes: entry + "  and one byte more\n", want: []string{"has 1555 bytes of prose"}},
		{name: "two tables", changes: head(changesFirstPR) + "x\n  | a |\n  text\n  | b |\n" + fmt.Sprintf("- **PR %d · next**\n", changesFirstPR+1), want: []string{"has 2 tables"}},
		{name: "no such section", design: design, refs: []docRef{{"x.go:1", 3, []string{"top"}}}, want: []string{"x.go:1: DESIGN.md §3 does not exist"}},
		{name: "a section about another package", design: design, refs: []docRef{{"x.go:1", 1, []string{"top"}}}, want: []string{"x.go:1: DESIGN.md §1 is"}},
	} {
		got := checkDocBudgets(order, tc.design, tc.readme, tc.changes, tc.refs)
		if len(got) != len(tc.want) {
			t.Errorf("%s: findings %q, want %d", tc.name, got, len(tc.want))
			continue
		}
		for i := range got {
			if !strings.Contains(got[i], tc.want[i]) {
				t.Errorf("%s: finding %q, want it to contain %q", tc.name, got[i], tc.want[i])
			}
		}
	}

	readme := "# x\n\nSee `internal/top` and\nDESIGN.md §2.\n\nDESIGN §1, of `cmd/low`.\n"
	want := []docRef{{"README.md:4", 2, []string{"top"}}, {"README.md:6", 1, []string{"low"}}}
	if got := markdownRefs("README.md", readme); !slices.EqualFunc(got, want, func(a, b docRef) bool {
		return a.where == b.where && a.section == b.section && slices.Equal(a.pkgs, b.pkgs)
	}) {
		t.Errorf("markdownRefs: %+v, want %+v", got, want)
	}
	fset, srcs, err := parseSources(map[string]string{"internal/top/top.go": "// Package top, see\n// DESIGN.md §2 on `low`.\npackage top"})
	if err != nil {
		t.Fatal(err)
	}
	if got := goRefs(fset, srcs); len(got) != 1 || got[0].where != "internal/top/top.go:2" || got[0].section != 2 || !slices.Equal(got[0].pkgs, []string{"low", "top"}) {
		t.Errorf("goRefs: %+v", got)
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
