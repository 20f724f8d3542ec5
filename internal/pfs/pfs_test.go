package pfs

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestClean(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "/"},
		{"/", "/"},
		{"a/b", "/a/b"},
		{"/a//b/", "/a/b"},
		{"/a/./b", "/a/b"},
		{"/a/../b", "/b"},
		{"../../x", "/x"},
	}
	for _, c := range cases {
		if got := Clean(c.in); got != c.want {
			t.Errorf("Clean(%q)=%q, want %q", c.in, got, c.want)
		}
	}
}

func TestSplit(t *testing.T) {
	dir, base := Split("/a/b/c.txt")
	if dir != "/a/b" || base != "c.txt" {
		t.Fatalf("got %q %q", dir, base)
	}
	dir, base = Split("/top")
	if dir != "/" || base != "top" {
		t.Fatalf("got %q %q", dir, base)
	}
}

func TestNamespaceCreateOpen(t *testing.T) {
	ns := NewNamespace()
	n, err := ns.CreateFile("/out/run1/data.0")
	if err != nil {
		t.Fatal(err)
	}
	NodeWrite(n, 0, 100, nil)
	got, err := ns.OpenFile("/out/run1/data.0")
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != 100 {
		t.Fatalf("size=%d, want 100", got.Size)
	}
	if _, err := ns.OpenFile("/out/run1"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("opening dir: err=%v, want ErrIsDir", err)
	}
	if _, err := ns.OpenFile("/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing file: err=%v, want ErrNotExist", err)
	}
}

func TestCreateTruncates(t *testing.T) {
	ns := NewNamespace()
	n, _ := ns.CreateFile("/f")
	NodeWrite(n, 0, 50, []byte(make([]byte, 50)))
	n2, err := ns.CreateFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if n2.Size != 0 || n2.Content != nil {
		t.Fatalf("re-create did not truncate: size=%d", n2.Size)
	}
}

func TestUnlink(t *testing.T) {
	ns := NewNamespace()
	ns.CreateFile("/a/f")
	if err := ns.Unlink("/a/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.OpenFile("/a/f"); !errors.Is(err, ErrNotExist) {
		t.Fatal("file still exists after unlink")
	}
	if err := ns.Unlink("/a"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("unlink dir: err=%v, want ErrIsDir", err)
	}
	if err := ns.Unlink("/a/missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("unlink missing: err=%v, want ErrNotExist", err)
	}
}

func TestReadDirSorted(t *testing.T) {
	ns := NewNamespace()
	for _, f := range []string{"/d/c", "/d/a", "/d/b"} {
		ns.CreateFile(f)
	}
	ns.MkdirAll("/d/sub")
	ents, err := ns.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/d/a", "/d/b", "/d/c", "/d/sub"}
	if len(ents) != len(want) {
		t.Fatalf("got %d entries", len(ents))
	}
	for i, e := range ents {
		if e.Path != want[i] {
			t.Errorf("entry %d = %q, want %q", i, e.Path, want[i])
		}
	}
	if !ents[3].IsDir {
		t.Error("sub should be a dir")
	}
}

// TestWalkFiles: Files visits the files WalkFiles does, in the same
// order — sorted by path component by component, so "/a/b/c" before
// "/a/b-" — handing over each file's directory, from which WalkFiles
// joins the path; a root that is a file is visited with its parent.
// FilesUnordered visits the same files, in any order.
func TestWalkFiles(t *testing.T) {
	ns := NewNamespace()
	paths := []string{"/top", "/a/z", "/a/b/c", "/a/b_global_1/md.0", "/a/b_global_1/x", "/a/m", "/a/b-", "/b/data.0"}
	for _, p := range paths {
		if _, err := ns.CreateFile(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, root := range []string{"/", "/a", "//a/./b_global_1/", "/a/b/c", "/top"} {
		var walked, joined []string
		if err := ns.WalkFiles(root, func(p string, n *Node) {
			walked = append(walked, p)
			if _, base := Split(p); base != n.Name {
				t.Errorf("WalkFiles(%q) gave %q with node %q", root, p, n.Name)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := ns.Files(root, func(dir string, n *Node) { joined = append(joined, Join(dir, n.Name)) }); err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, p := range paths {
			if r := Clean(root); p == r || r == "/" || strings.HasPrefix(p, r+"/") {
				want = append(want, p)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			return strings.ReplaceAll(want[i], "/", "\x00") < strings.ReplaceAll(want[j], "/", "\x00")
		})
		if !slices.Equal(walked, want) || !slices.Equal(joined, want) {
			t.Errorf("under %q: WalkFiles %q, Files %q, want %q", root, walked, joined, want)
		}
		var unordered []string
		if err := ns.FilesUnordered(root, func(dir string, n *Node) { unordered = append(unordered, Join(dir, n.Name)) }); err != nil {
			t.Fatal(err)
		}
		if slices.Sort(unordered); !slices.Equal(unordered, slices.Sorted(slices.Values(want))) {
			t.Errorf("under %q: FilesUnordered %q, want %q in any order", root, unordered, want)
		}
	}
	if err := ns.Files("/missing", func(string, *Node) { t.Error("visited under a missing root") }); !errors.Is(err, ErrNotExist) {
		t.Errorf("Files of a missing root: err=%v, want ErrNotExist", err)
	}
	if err := ns.FilesUnordered("/missing", func(string, *Node) { t.Error("visited under a missing root") }); !errors.Is(err, ErrNotExist) {
		t.Errorf("FilesUnordered of a missing root: err=%v, want ErrNotExist", err)
	}
}

// TestUnlinkedNodeKept: nodes come from a slab, and until the namespace is
// released a slot is never handed out twice. A node unlinked while
// something holds it keeps its size, and the next create of its path, in
// any chunk, gets a fresh node.
func TestUnlinkedNodeKept(t *testing.T) {
	ns := NewNamespace()
	const files = 3 * slabCap
	held := make([]*Node, files)
	for i := range held {
		n, err := ns.CreateFile(fmt.Sprintf("/d/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		NodeWrite(n, 0, int64(i+1), nil)
		held[i] = n
	}
	for i := range held {
		p := fmt.Sprintf("/d/f%d", i)
		if err := ns.Unlink(p); err != nil {
			t.Fatal(err)
		}
		n, err := ns.CreateFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(held, n) {
			t.Fatalf("re-created %s is a node that is still held", p)
		}
		if n.Size != 0 || n.Name != fmt.Sprintf("f%d", i) || n.Aux != nil {
			t.Fatalf("re-created %s is not fresh: %+v", p, *n)
		}
		NodeWrite(n, 0, 7*files, nil)
	}
	for i, n := range held {
		if n.Size != int64(i+1) {
			t.Fatalf("unlinked f%d: size %d, want %d", i, n.Size, i+1)
		}
	}
}

// TestSlabRecyclesZeroValues: a slab on the full chunks a dirtier slab
// gave back hands out those chunks' slots first, each a zero value.
func TestSlabRecyclesZeroValues(t *testing.T) {
	type val struct {
		n int
		p *int
		s string
	}
	var pool Pool[val]
	s := NewSlab(&pool)
	const n = 12*slabCap + 5 // past the small chunks
	for i := range n {
		*s.New() = val{n: i + 1, p: &i, s: "dirty"}
	}
	released := map[*val]bool{}
	for _, c := range s.chunks {
		for i := range c {
			released[&c[i]] = true
		}
	}
	if len(released) == 0 {
		t.Fatal("the slab kept no full chunk")
	}
	s.Release()
	s = NewSlab(&pool)
	for i := range len(released) {
		v := s.New()
		if *v != (val{}) {
			t.Fatalf("a recycled slot holds %+v", *v)
		}
		if !released[v] {
			t.Fatalf("value %d of %d is not from a released chunk", i, len(released))
		}
		v.n = -1 // a slot handed out twice would show it
	}
}

// TestPoolKeepsLastRelease: a pool holds at most what its last Give
// brought, the newest chunks, and hands them out before it makes one.
func TestPoolKeepsLastRelease(t *testing.T) {
	var p Pool[int]
	chunks := func(k int) [][]int {
		cs := make([][]int, k)
		for i := range cs {
			cs[i] = []int{k, i}
		}
		return cs
	}
	p.Give(chunks(5))
	p.Give(chunks(2))
	if len(p.chunks) != 2 {
		t.Fatalf("after giving 5 then 2 chunks the pool holds %d, want 2", len(p.chunks))
	}
	for _, c := range p.chunks {
		if c[0] != 0 || c[1] != 0 || cap(c) != 2 {
			t.Fatalf("pooled chunk %v is not one of the last Give's, cleared", c)
		}
	}
	if c := p.Take(7); len(c) != 2 || len(p.chunks) != 1 {
		t.Fatalf("Take from a pool of 2 returned %d values and left %d chunks, want 2 and 1", len(c), len(p.chunks))
	}
	p.Give(nil)
	if len(p.chunks) != 0 {
		t.Fatalf("after an empty Give the pool holds %d chunks, want 0", len(p.chunks))
	}
	if c := p.Take(7); len(c) != 7 {
		t.Fatalf("Take from an empty pool returned %d values, want a new chunk of 7", len(c))
	}
}

// TestReleasedNamespacePanics: every use of a released namespace panics
// with a message that names it.
func TestReleasedNamespacePanics(t *testing.T) {
	ns := NewNamespace()
	if _, err := ns.CreateFile("/d/f"); err != nil {
		t.Fatal(err)
	}
	ns.Release()
	for name, use := range map[string]func(){
		"Lookup":     func() { ns.Lookup("/d/f") },
		"CreateFile": func() { ns.CreateFile("/") },
		"OpenFile":   func() { ns.OpenFile("/d/f") },
		"ReadDir":    func() { ns.ReadDir("/d") },
		"Files":      func() { ns.Files("/", func(string, *Node) {}) },
		"Unlink":     func() { ns.Unlink("/d/f") },
		"Release":    ns.Release,
	} {
		func() {
			defer func() {
				if r := recover(); r != "pfs: use of a released Namespace" {
					t.Errorf("%s after Release: recovered %v", name, r)
				}
			}()
			use()
		}()
	}
}

func TestNodeWriteReadContent(t *testing.T) {
	n := &Node{}
	NodeWrite(n, 0, 4, []byte("abcd"))
	NodeWrite(n, 2, 4, []byte("WXYZ"))
	if n.Size != 6 {
		t.Fatalf("size=%d, want 6", n.Size)
	}
	if got := string(NodeRead(n, 0, 6)); got != "abWXYZ" {
		t.Fatalf("content=%q", got)
	}
	if NodeRead(n, 10, 4) != nil {
		t.Fatal("read past EOF should be nil")
	}
}

func TestNodeVolumeMode(t *testing.T) {
	n := &Node{}
	NodeWrite(n, 0, 1<<30, nil) // 1 GiB tracked, zero bytes stored
	if n.Size != 1<<30 || n.Content != nil {
		t.Fatal("volume mode should not materialize content")
	}
	if NodeRead(n, 0, 16) != nil {
		t.Fatal("volume-mode read should be nil")
	}
}

// Property: Clean is idempotent and always yields an absolute path — and
// cleaning a clean path is free: the same string (same data pointer, not
// an equal copy) and no allocation, which is what lets every layer
// normalise at its own entry.
func TestCleanIdempotentProperty(t *testing.T) {
	f := func(s string) bool {
		c := Clean(s)
		cc := Clean(c)
		return c == cc && len(c) > 0 && c[0] == '/' && unsafe.StringData(c) == unsafe.StringData(cc) &&
			testing.AllocsPerRun(1, func() { Clean(c) }) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"/", "/a", "/scratch/bit1/bit1_000001.dat", "/.a/..b/c.", "/a b/\x00"} {
		if c := Clean(s); unsafe.StringData(c) != unsafe.StringData(s) {
			t.Errorf("Clean(%q) = %q is not its argument", s, c)
		}
	}
}

// checkClean is the contract FuzzClean holds Clean, Split and Join to.
func checkClean(t *testing.T, in string) {
	c := Clean(in)
	if c == "" || c[0] != '/' {
		t.Fatalf("Clean(%q) = %q is not absolute", in, c)
	}
	if c != "/" {
		for _, part := range strings.Split(c[1:], "/") {
			if part == "" || part == "." || part == ".." {
				t.Fatalf("Clean(%q) = %q has component %q", in, c, part)
			}
		}
		if dir, base := Split(c); Join(dir, base) != c {
			t.Fatalf("Join(Split(%q)) = %q", c, Join(dir, base))
		}
	}
	if cc := Clean(c); cc != c {
		t.Fatalf("Clean(%q) = %q is not a fixed point: cleans to %q", in, c, cc)
	}
}

// FuzzClean: Clean never panics, and its result is absolute, has no
// empty, "." or ".." component, is a fixed point and survives
// Join(Split(c)). The corpus is testdata/fuzz/FuzzClean.
func FuzzClean(f *testing.F) {
	f.Fuzz(checkClean)
}

// TestCreateRoot: the root is a directory, not a file to create.
func TestCreateRoot(t *testing.T) {
	ns := NewNamespace()
	if _, err := ns.CreateFile("/"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("create /: err=%v, want ErrIsDir", err)
	}
	if ents, _ := ns.ReadDir("/"); len(ents) != 0 {
		t.Fatalf("create / left entries behind: %v", ents)
	}
}

// Property: after a sequence of writes, Size equals the max extent end.
func TestNodeSizeProperty(t *testing.T) {
	f := func(offs []uint16, lens []uint8) bool {
		n := &Node{}
		var want int64
		for i := range offs {
			if i >= len(lens) {
				break
			}
			off, l := int64(offs[i]), int64(lens[i])
			NodeWrite(n, off, l, nil)
			if off+l > want {
				want = off + l
			}
		}
		return n.Size == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
