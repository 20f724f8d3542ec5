package picmcio

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"slices"
	"strings"
	"testing"
)

// keptExports is the allowlist of TestNoDeadExports: exported names under
// internal/ that no shipped file references and that stay anyway, each
// with the reason. At most maxKept, so that it cannot become where dead
// code goes.
var keptExports = map[string]string{
	"darshan.Log.Encode":      "the writer of the only format cmd/darshan-parser reads; until a CLI writes a log (ROADMAP items 5 and 8) only tests call it",
	"mpisim.World.MemoBuilds": "the counter the once-per-world ratchets of openpmd's and bit1's tests read; a _test.go file of mpisim could not serve them",
	"nfs.DefaultParams":       "the one NFS configuration there is: no machine preset mounts NFS, and the tests of nfs, pfs (its conformance trace) and experiments build theirs from it",
}

const maxKept = 10

// stdlibHooks are the methods the standard library calls through an
// interface of its own — fmt, encoding/json, sort, container/heap — so
// that no selector in the module names them.
var stdlibHooks = []string{"String", "Error", "MarshalJSON", "UnmarshalJSON", "Len", "Less", "Swap", "Push", "Pop"}

// export is one exported function, method, type, constant or variable
// declared in a non-test file under internal/.
type export struct {
	dir  string // its package's directory
	recv string // the receiver's type, for a method
	name string
	pos  token.Position
}

// String is the name keptExports knows it by: pkg.Name or pkg.Type.Method.
func (e export) String() string {
	if e.recv != "" {
		return path.Base(e.dir) + "." + e.recv + "." + e.name
	}
	return path.Base(e.dir) + "." + e.name
}

// exportsOf lists the exports of a file.
func exportsOf(fset *token.FileSet, s *source) []export {
	var out []export
	add := func(recv string, id *ast.Ident) {
		if id.IsExported() {
			out = append(out, export{dir: s.dir(), recv: recv, name: id.Name, pos: fset.Position(id.Pos())})
		}
	}
	for _, d := range s.file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil {
				t := d.Recv.List[0].Type
				if star, ok := t.(*ast.StarExpr); ok {
					t = star.X
				}
				switch ix := t.(type) { // a generic receiver
				case *ast.IndexExpr:
					t = ix.X
				case *ast.IndexListExpr:
					t = ix.X
				}
				recv = t.(*ast.Ident).Name
			}
			add(recv, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add("", spec.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add("", id)
					}
				}
			}
		}
	}
	return out
}

// references is what the files that count name: by package and name where
// a selector starts at an import (or an identifier stands in its own
// package), by bare name where a selector starts at a value — a method or
// a field, of a type a parser cannot know. Each maps to whether a file
// outside the declaring package (or any file, for a bare name) did it.
type references struct {
	pkg      map[[2]string]bool // {dir, name} → referenced from another package
	selector map[string]string  // name → a directory that selects it, "*" if several do
}

// collect adds the references of one file.
func (r *references) collect(fset *token.FileSet, s *source) {
	imports := map[string]string{} // local name → directory
	for _, im := range s.imports(fset) {
		imports[im.local] = im.dir
	}
	own := s.dir()
	declares := map[*ast.Ident]bool{} // the name a declaration gives is not a reference to it
	ast.Inspect(s.file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			declares[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				r.pkg[[2]string{imports[x.Name], n.Sel.Name}] = true
			} else if from, ok := r.selector[n.Sel.Name]; !ok {
				r.selector[n.Sel.Name] = own
			} else if from != own {
				r.selector[n.Sel.Name] = "*"
			}
		case *ast.FuncDecl:
			declares[n.Name] = true
		case *ast.TypeSpec:
			declares[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				declares[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				declares[id] = true
			}
		case *ast.Ident:
			if key := [2]string{own, n.Name}; !declares[n] && !r.pkg[key] {
				r.pkg[key] = false // referenced, if only from its own package
			}
		}
		return true
	})
}

// checkDeadExports returns, as "file:line: name", every export under
// internal/ that nothing references and kept does not list, and every
// fault of kept itself; and how many exports only their own package
// references. What counts as a reference: any non-test file of the module,
// and any file of benchmark/, which is fixed from outside.
func checkDeadExports(fset *token.FileSet, srcs []*source, kept map[string]string) (dead []string, ownOnly int) {
	refs := &references{pkg: map[[2]string]bool{}, selector: map[string]string{}}
	var exports []export
	for _, s := range srcs {
		if s.test && s.dir() != "benchmark" {
			continue
		}
		refs.collect(fset, s)
		if s.internalPkg() != "" {
			exports = append(exports, exportsOf(fset, s)...)
		}
	}
	used := map[string]bool{}
	for _, e := range exports {
		var alive, outside bool
		if e.recv == "" {
			outside, alive = refs.pkg[[2]string{e.dir, e.name}]
		} else {
			from, ok := refs.selector[e.name]
			hook := slices.Contains(stdlibHooks, e.name)
			alive, outside = ok || hook, hook || from != e.dir
		}
		switch _, ok := kept[e.String()]; {
		case ok: // whatever a namesake does
		case !alive:
			dead = append(dead, fmt.Sprintf("%s:%d: %s", e.pos.Filename, e.pos.Line, e))
		case alive && !outside:
			ownOnly++
		}
		used[e.String()] = true
	}
	for name, reason := range kept {
		if !used[name] {
			dead = append(dead, fmt.Sprintf("keptExports: %s is not an export of internal/", name))
		} else if strings.TrimSpace(reason) == "" {
			dead = append(dead, fmt.Sprintf("keptExports: %s has no reason", name))
		}
	}
	if len(kept) > maxKept {
		dead = append(dead, fmt.Sprintf("keptExports: %d entries, at most %d", len(kept), maxKept))
	}
	slices.Sort(dead)
	return dead, ownOnly
}

// Every exported function, method, type, constant and variable under
// internal/ is referenced by a file that ships — or by benchmark/ — or is
// on keptExports with a reason. (Struct fields are not looked at, and a
// method is known by its name alone: one that shares it with a live method
// passes. An interface that lists a method does not keep it alive; a call
// does.)
func TestNoDeadExports(t *testing.T) {
	fset, srcs := parseModule(t)
	dead, ownOnly := checkDeadExports(fset, srcs, keptExports)
	t.Logf("%d exports are referenced by their own package only", ownOnly)
	if len(dead) > 0 {
		t.Errorf("%d exported names under internal/ that no shipped file references:\n  %s\nfix: delete it with the tests that exercise only it; move it to a _test.go file if a test of something else needs it; unexport it if only its package does",
			len(dead), strings.Join(dead, "\n  "))
	}
}

func TestCheckDeadExports(t *testing.T) {
	base := map[string]string{
		"internal/low/low.go": `package low
type T struct{}
func Used() T { return T{} }
func (T) Method() {}
func (T) String() string { return "" }
const OwnOnly = 1
var _ = OwnOnly
func ForBench() {}
func unexported() {}
`,
		"internal/top/top.go":    "package top\nimport l \"picmcio/internal/low\"\nvar V = l.Used()\nfunc init() { V.Method() }",
		"cmd/tool/main.go":       "package main\nimport \"picmcio/internal/top\"\nvar _ = top.V",
		"benchmark/b_test.go":    "package main\nimport \"picmcio/internal/low\"\nfunc init() { low.ForBench() }",
		"internal/low/l_test.go": "package low\nfunc init() { OnlyTested(); T{}.OnlyTestedMethod() }",
	}
	doer := "package low\ntype Doer interface{ Do() }\nfunc (T) Do() {}\nvar _ Doer = T{}"
	for _, tc := range []struct {
		name    string
		add     map[string]string
		kept    map[string]string
		want    []string // a substring of each finding, in order
		ownOnly int
	}{
		{name: "clean: fmt keeps String alive, benchmark/ ForBench, their own package T and OwnOnly", ownOnly: 2},
		{name: "an interface method no file calls is dead", add: map[string]string{"internal/low/doer.go": doer},
			want: []string{"internal/low/doer.go:3: low.T.Do"}, ownOnly: 3},
		{name: "a method called through its interface stays alive", add: map[string]string{"internal/low/doer.go": doer,
			"internal/top/do.go": "package top\nimport l \"picmcio/internal/low\"\nfunc init() { var d l.Doer = V; d.Do() }"}, ownOnly: 2},
		{name: "dead function", add: map[string]string{"internal/low/dead.go": "package low\n\nfunc OnlyTested() {}"},
			want: []string{"internal/low/dead.go:3: low.OnlyTested"}, ownOnly: 2},
		{name: "dead method", add: map[string]string{"internal/low/dead.go": "package low\nfunc (*T) OnlyTestedMethod() {}"},
			want: []string{"internal/low/dead.go:2: low.T.OnlyTestedMethod"}, ownOnly: 2},
		{name: "dead method of a type of two parameters", add: map[string]string{"internal/low/dead.go": "package low\ntype Pair[A, B any] struct{}\nfunc (*Pair[A, B]) OnlyTestedMethod() {}"},
			want: []string{"internal/low/dead.go:3: low.Pair.OnlyTestedMethod"}, ownOnly: 3},
		{name: "dead constant and type", add: map[string]string{"internal/low/dead.go": "package low\nconst Dead = 2\ntype Gone int"},
			want: []string{"internal/low/dead.go:2: low.Dead", "internal/low/dead.go:3: low.Gone"}, ownOnly: 2},
		{name: "another package's name of the same spelling does not count", add: map[string]string{
			"internal/mid/mid.go": "package mid\nfunc Used() {}"},
			want: []string{"internal/mid/mid.go:2: mid.Used"}, ownOnly: 2},
		{name: "kept, with a reason", add: map[string]string{"internal/low/dead.go": "package low\nfunc OnlyTested() {}"},
			kept: map[string]string{"low.OnlyTested": "the oracle of three packages' tests"}, ownOnly: 2},
		{name: "kept, without one", add: map[string]string{"internal/low/dead.go": "package low\nfunc OnlyTested() {}"},
			kept: map[string]string{"low.OnlyTested": " "},
			want: []string{"keptExports: low.OnlyTested has no reason"}, ownOnly: 2},
		{name: "kept, but absent", kept: map[string]string{"low.Nothing": "x"},
			want: []string{"keptExports: low.Nothing is not an export"}, ownOnly: 2},
	} {
		files := map[string]string{}
		for name, src := range base {
			files[name] = src
		}
		for name, src := range tc.add {
			files[name] = src
		}
		fset, srcs, err := parseSources(files)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, ownOnly := checkDeadExports(fset, srcs, tc.kept)
		if ownOnly != tc.ownOnly {
			t.Errorf("%s: %d own-package-only names, want %d", tc.name, ownOnly, tc.ownOnly)
		}
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
	kept := map[string]string{}
	for i := 0; i <= maxKept; i++ {
		kept[fmt.Sprintf("low.K%d", i)] = "x"
	}
	fset, srcs, _ := parseSources(base)
	if got, _ := checkDeadExports(fset, srcs, kept); !slices.ContainsFunc(got, func(s string) bool { return strings.Contains(s, "at most") }) {
		t.Errorf("an allowlist of %d entries passed: %q", len(kept), got)
	}
}
