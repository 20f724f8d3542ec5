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
	"darshan.Log.Encode":      "the writer of the only format cmd/darshan-parser reads; until a CLI writes a log (ROADMAP items 8 and 9) only tests call it",
	"mpisim.World.MemoBuilds": "the counter the once-per-world ratchets of openpmd's and bit1's tests read; a _test.go file of mpisim could not serve them",
	"pfs.FileInfo.IsDir":      "POSIX's directory bit, which a burst tier must keep: the conformance trace in internal/pfs/testdata records it",

	// The frozen digests in internal/sched/testdata/result_digests.json
	// encode every field of a Result, so deleting one changes all of them.
	"sched.Result.LeaseOps":          "digested outcome",
	"sched.Result.IdleFailures":      "digested outcome",
	"sched.Result.RequeuedNodeHours": "digested outcome",
	"sched.TenantShare.MeanAbsErr":   "digested outcome",
	"sched.TenantShare.ActiveHours":  "digested outcome",
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

// field is one named field of a struct type declared in a non-test file
// under internal/. Its owner is the type's name, "struct" for an anonymous
// struct type.
type field struct {
	dir, owner, name string
	pos              token.Position
}

func (f field) String() string { return path.Base(f.dir) + "." + f.owner + "." + f.name }

// structKey names a struct type for the literals that build it: {dir,
// type name} for a declared type, the type expression's position for an
// anonymous one.
type structKey [2]string

// fieldsOf lists the named fields of every struct type a file declares,
// each with the key of its struct, leaving out the fields of a struct
// with tags: an encoder reads those.
func fieldsOf(fset *token.FileSet, s *source) (out []field, keys []structKey) {
	named := map[*ast.StructType]string{}
	ast.Inspect(s.file, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if st, ok := ts.Type.(*ast.StructType); ok {
				named[st] = ts.Name.Name
			}
		}
		st, ok := n.(*ast.StructType)
		if !ok || slices.ContainsFunc(st.Fields.List, func(f *ast.Field) bool { return f.Tag != nil }) {
			return true
		}
		owner, key := named[st], structKey{s.dir(), named[st]}
		if owner == "" {
			owner, key = "struct", structKey{s.name, fmt.Sprint(st.Pos())}
		}
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				out = append(out, field{dir: s.dir(), owner: owner, name: id.Name, pos: fset.Position(id.Pos())})
				keys = append(keys, key)
			}
		}
		return true
	})
	return out, keys
}

// references is what the files that count name: by package and name where
// a selector starts at an import (or an identifier stands in its own
// package), by bare name where a selector starts at a value — a method or
// a field, of a type a parser cannot know. Each maps to whether a file
// outside the declaring package (or any file, for a bare name) did it.
// Field reads are by bare name too, and struct literals by the type they
// build.
type references struct {
	pkg      map[[2]string]bool // {dir, name} → referenced from another package
	selector map[string]string  // name → a directory that selects it, "*" if several do
	read     map[[2]string]bool // {dir, name} → a selector in dir that is not a write's target
	keyed    map[structKey]bool // struct → built by a literal with field names (false: positional only)
}

// writeTarget is the selector an assignment or inc/dec statement writes
// through, index expressions stripped: x.F in x.F = v, x.F[i] += n, x.F++.
func writeTarget(e ast.Expr) *ast.SelectorExpr {
	for {
		ix, ok := e.(*ast.IndexExpr)
		if !ok {
			break
		}
		e = ix.X
	}
	sel, _ := e.(*ast.SelectorExpr)
	return sel
}

// collect adds the references of one file.
func (r *references) collect(fset *token.FileSet, s *source) {
	imports := map[string]string{} // local name → directory
	for _, im := range s.imports(fset) {
		imports[im.local] = im.dir
	}
	own := s.dir()
	// typeKey is the struct a literal of type t builds, or false.
	typeKey := func(t ast.Expr) (structKey, bool) {
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		switch t := t.(type) {
		case *ast.Ident:
			return structKey{own, t.Name}, true
		case *ast.SelectorExpr:
			if x, ok := t.X.(*ast.Ident); ok && imports[x.Name] != "" {
				return structKey{imports[x.Name], t.Sel.Name}, true
			}
		case *ast.StructType:
			return structKey{s.name, fmt.Sprint(t.Pos())}, true
		}
		return structKey{}, false
	}
	elided := map[*ast.CompositeLit]ast.Expr{} // a literal without a type → the one its parent gives it
	declares := map[*ast.Ident]bool{}          // the name a declaration gives is not a reference to it
	writes := map[*ast.SelectorExpr]bool{}
	ast.Inspect(s.file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel := writeTarget(lhs); sel != nil {
					writes[sel] = true
				}
			}
		case *ast.IncDecStmt:
			if sel := writeTarget(n.X); sel != nil {
				writes[sel] = true
			}
		case *ast.CompositeLit:
			t := n.Type
			if t == nil {
				t = elided[n]
			}
			var key, elem ast.Expr
			switch t := t.(type) {
			case *ast.ArrayType:
				elem = t.Elt
			case *ast.MapType:
				key, elem = t.Key, t.Value
			}
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if lit, ok := kv.Key.(*ast.CompositeLit); ok {
						elided[lit] = key
					}
					e = kv.Value
				}
				if lit, ok := e.(*ast.CompositeLit); ok {
					elided[lit] = elem
				}
			}
			if k, ok := typeKey(t); ok && len(n.Elts) > 0 {
				_, byName := n.Elts[0].(*ast.KeyValueExpr)
				r.keyed[k] = r.keyed[k] || byName
			}
		case *ast.SelectorExpr:
			declares[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				r.pkg[[2]string{imports[x.Name], n.Sel.Name}] = true
				break
			}
			if !writes[n] {
				r.read[[2]string{own, n.Sel.Name}] = true
				r.read[[2]string{"*", n.Sel.Name}] = true
			}
			if from, ok := r.selector[n.Sel.Name]; !ok {
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
// internal/ that nothing references and every field there that nothing
// reads, where kept does not list it, and every fault of kept itself; and how many exports only their own package
// references. What counts as a reference: any non-test file of the module,
// and any file of benchmark/, which is fixed from outside.
func checkDeadExports(fset *token.FileSet, srcs []*source, kept map[string]string) (dead []string, ownOnly int) {
	refs := &references{pkg: map[[2]string]bool{}, selector: map[string]string{},
		read: map[[2]string]bool{}, keyed: map[structKey]bool{}}
	var exports []export
	var fields []field
	var structs []structKey
	for _, s := range srcs {
		if s.test && s.dir() != "benchmark" {
			continue
		}
		refs.collect(fset, s)
		if s.internalPkg() != "" {
			exports = append(exports, exportsOf(fset, s)...)
			fs, keys := fieldsOf(fset, s)
			fields, structs = append(fields, fs...), append(structs, keys...)
		}
	}
	used := map[string]bool{}
	for i, f := range fields {
		from := "*" // an exported field may be read anywhere, an unexported one in its package
		if !token.IsExported(f.name) {
			from = f.dir
		}
		keyed, built := refs.keyed[structs[i]]
		_, ok := kept[f.String()]
		if !ok && !refs.read[[2]string{from, f.name}] && (keyed || !built) {
			dead = append(dead, fmt.Sprintf("%s:%d: %s is written, never read", f.pos.Filename, f.pos.Line, f))
		}
		used[f.String()] = true
	}
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
// internal/ is referenced by a file that ships — or by benchmark/ — and
// every struct field declared there is read by one, or it is on
// keptExports with a reason. A write is not a read: a selector that is the
// whole target of an assignment or inc/dec statement (x.F = v, x.F[i] += n,
// x.F++) only fills the field. Exempt are the fields of a struct with tags
// (an encoder reads them) and of one only ever built by positional literals
// (a map key, compared whole). A method or field is known by its name
// alone, an unexported field within its package: one that shares it with a
// live one passes. An interface that lists a method does not keep it
// alive; a call does.
func TestNoDeadExports(t *testing.T) {
	fset, srcs := parseModule(t)
	dead, ownOnly := checkDeadExports(fset, srcs, keptExports)
	t.Logf("%d exports are referenced by their own package only", ownOnly)
	if len(dead) > 0 {
		t.Errorf("%d names under internal/ that no shipped file references or reads:\n  %s\nfix: delete it, with the code that fills a field and the tests that exercise only it; move it to a _test.go file if a test of something else needs it; unexport it if only its package does",
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
	report := map[string]string{
		"internal/low/rep.go": "package low\ntype Rep struct{ Read, Filled, Tally int }\nfunc NewRep() Rep { var r Rep; r.Filled = 1; r.Tally++; return r }",
		"internal/top/rep.go": "package top\nimport l \"picmcio/internal/low\"\nvar _ = l.NewRep().Read",
	}
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
		{name: "a field only written is dead", add: report,
			want: []string{"internal/low/rep.go:2: low.Rep.Filled is written, never read", "internal/low/rep.go:2: low.Rep.Tally is written"}, ownOnly: 3},
		{name: "x.F[i] += n writes F", add: map[string]string{
			"internal/low/rep.go": "package low\ntype Rep struct{ ByClass [2]int }\nfunc Fill(r *Rep) { r.ByClass[1] += 3 }",
			"internal/top/rep.go": "package top\nimport l \"picmcio/internal/low\"\nfunc init() { l.Fill(&l.Rep{}) }"},
			want: []string{"internal/low/rep.go:2: low.Rep.ByClass is written"}, ownOnly: 2},
		{name: "a read from benchmark/ keeps a field alive", add: map[string]string{
			"internal/low/rep.go":   report["internal/low/rep.go"],
			"internal/top/rep.go":   report["internal/top/rep.go"],
			"benchmark/rep_test.go": "package main\nimport \"picmcio/internal/low\"\nfunc init() { r := low.NewRep(); _ = r.Filled + r.Tally }"}, ownOnly: 3},
		{name: "a positional map key and a tagged struct are not looked at", add: map[string]string{
			"internal/low/key.go": "package low\ntype key struct{ a, b int }\nvar seen = map[key]bool{{0, 0}: true}\nfunc Mark(a, b int) { seen[key{a, b}] = true }\n" +
				"type Doc struct{ Name string `json:\"name\"` }\nfunc NewDoc() Doc { var d Doc; d.Name = \"x\"; return d }",
			"internal/top/key.go": "package top\nimport l \"picmcio/internal/low\"\nfunc init() { l.Mark(1, 2); _ = l.NewDoc() }"}, ownOnly: 3},
		{name: "kept field", add: report, kept: map[string]string{"low.Rep.Filled": "digested", "low.Rep.Tally": "digested"}, ownOnly: 3},
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
