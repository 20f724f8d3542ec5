package sweep

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"picmcio/internal/mpisim"
	"picmcio/internal/sim"
	"picmcio/internal/xrand"
)

func testGrid() Grid {
	return Grid{
		Strings("policy", []string{"a", "b"}),
		Ints("nodes", []int{1, 2, 4}),
	}
}

func TestGridSizeAndOrder(t *testing.T) {
	g := testGrid()
	if g.Size() != 6 {
		t.Fatalf("size=%d, want 6", g.Size())
	}
	// Row-major: last axis fastest.
	want := []struct {
		policy string
		nodes  int
	}{{"a", 1}, {"a", 2}, {"a", 4}, {"b", 1}, {"b", 2}, {"b", 4}}
	for i, w := range want {
		c := g.At(i)
		if c.Str("policy") != w.policy || c.Int("nodes") != w.nodes {
			t.Errorf("cell %d = (%s,%d), want (%s,%d)", i, c.Str("policy"), c.Int("nodes"), w.policy, w.nodes)
		}
		if c.Index != i {
			t.Errorf("cell %d carries index %d", i, c.Index)
		}
	}
	if g.At(4).Ordinal("nodes") != 1 || g.At(4).Ordinal("policy") != 1 {
		t.Errorf("ordinals of cell 4: %d/%d", g.At(4).Ordinal("policy"), g.At(4).Ordinal("nodes"))
	}
}

func TestGridValidate(t *testing.T) {
	cases := []struct {
		g    Grid
		want string
	}{
		{Grid{{Name: "", Values: []any{1}}}, "empty name"},
		{Grid{{Name: "x"}}, "no values"},
		{Grid{Ints("x", []int{1}), Ints("x", []int{2})}, "duplicate"},
	}
	for _, c := range cases {
		if err := c.g.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate() = %v, want %q", err, c.want)
		}
	}
	if err := testGrid().Validate(); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
	if _, err := Run(testGrid(), Options{}, nil); err == nil {
		t.Error("nil trial accepted")
	}
}

func TestEmptyGridIsSingleTrial(t *testing.T) {
	tbl, err := Run(nil, Options{Title: "t"}, func(c Config) (Point, error) {
		return Point{Values: []Value{V("x", 1)}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Points) != 1 {
		t.Fatalf("points=%d, want 1 (degenerate campaign)", len(tbl.Points))
	}
}

// trial derives a value from the config's parameters plus its derived
// seed, standing in for a stochastic simulation.
func seededTrial(c Config) (Point, error) {
	r := xrand.New(c.Seed)
	v := float64(c.Int("nodes")) + r.Float64()
	return Point{Values: []Value{V("v", v)}, Extra: c.Str("policy")}, nil
}

func TestParallelBitIdenticalToSerial(t *testing.T) {
	g := testGrid()
	serial, err := Run(g, Options{Title: "x", Seed: 7}, seededTrial)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 16} {
		parallel, err := Run(g, Options{Title: "x", Seed: 7, Parallel: par}, seededTrial)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Render() != parallel.Render() {
			t.Fatalf("parallel %d diverged:\n%s\nvs\n%s", par, serial.Render(), parallel.Render())
		}
		sj, _ := serial.JSON()
		pj, _ := parallel.JSON()
		if string(sj) != string(pj) {
			t.Fatalf("parallel %d JSON diverged", par)
		}
	}
	// A different run seed must perturb the derived streams.
	other, err := Run(g, Options{Title: "x", Seed: 8}, seededTrial)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Render() == other.Render() {
		t.Error("seed change did not perturb trial streams")
	}
}

func TestRunActuallyRunsConcurrently(t *testing.T) {
	var inFlight, peak atomic.Int32
	block := make(chan struct{})
	done := make(chan Table)
	go func() {
		tbl, _ := Run(Grid{Ints("i", []int{0, 1, 2, 3})}, Options{Parallel: 4}, func(c Config) (Point, error) {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			<-block
			inFlight.Add(-1)
			return Point{}, nil
		})
		done <- tbl
	}()
	// All four trials park on the channel together only if the pool
	// really fans out; a bounded wait turns a pool regression into a
	// failure instead of a hang.
	deadline := time.Now().Add(5 * time.Second)
	for peak.Load() < 4 {
		if time.Now().After(deadline) {
			close(block)
			<-done
			t.Fatalf("worker pool never reached 4 concurrent trials (peak %d)", peak.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	<-done
}

func TestErrorCarriesTrialParams(t *testing.T) {
	boom := fmt.Errorf("boom")
	_, err := Run(testGrid(), Options{}, func(c Config) (Point, error) {
		if c.Str("policy") == "b" && c.Int("nodes") == 2 {
			return Point{}, boom
		}
		return Point{}, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	for _, want := range []string{"trial 4", "policy=b", "nodes=2", "boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestPointGetAndParams(t *testing.T) {
	tbl, err := Run(testGrid(), Options{Seed: 1}, seededTrial)
	if err != nil {
		t.Fatal(err)
	}
	p := tbl.Points[5]
	if v, ok := p.Get("v"); !ok || v < 4 || v >= 5 {
		t.Errorf("point 5 v=%v ok=%v, want 4+rand", v, ok)
	}
	if _, ok := p.Get("nope"); ok {
		t.Error("Get invented a value")
	}
	// Params are auto-filled from the config in axis order.
	if len(p.Params) != 2 || p.Params[0] != (Param{"policy", "b"}) || p.Params[1] != (Param{"nodes", "4"}) {
		t.Errorf("params=%v", p.Params)
	}
	if p.Extra.(string) != "b" {
		t.Errorf("extra=%v", p.Extra)
	}
}

func TestRenderAndJSON(t *testing.T) {
	tbl, err := Run(testGrid(), Options{Title: "demo", Seed: 1}, func(c Config) (Point, error) {
		return Point{Values: []Value{V("twice", float64(2*c.Int("nodes")))}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Render()
	for _, want := range []string{"# demo", "policy", "nodes", "twice", "8"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	buf, err := tbl.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"title": "demo"`, `"seed": 1`, `"name": "nodes"`, `"value": 8`} {
		if !strings.Contains(string(buf), want) {
			t.Errorf("JSON missing %q", want)
		}
	}
	if strings.Contains(string(buf), "Extra") {
		t.Error("Extra payload leaked into JSON")
	}
}

func TestFormatValueTypes(t *testing.T) {
	cases := map[any]string{
		"s":            "s",
		42:             "42",
		int64(1 << 40): "1099511627776",
		1.5:            "1.5",
		true:           "true",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v)=%q, want %q", v, got, want)
		}
	}
}

func TestFormatAlignedMatchesLegacyLayout(t *testing.T) {
	out := FormatAligned("t", []string{"a", "long-header"}, [][]string{{"xxxx", "y"}})
	want := "# t\na     long-header  \nxxxx  y            \n"
	if out != want {
		t.Errorf("aligned output %q, want %q", out, want)
	}
}

func TestRunStopsAfterFailure(t *testing.T) {
	var calls atomic.Int32
	_, err := Run(Grid{Ints("i", []int{0, 1, 2, 3, 4, 5})}, Options{}, func(c Config) (Point, error) {
		calls.Add(1)
		if c.Int("i") == 1 {
			return Point{}, fmt.Errorf("boom")
		}
		return Point{}, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("serial run evaluated %d trials after the failure at index 1, want 2", got)
	}
}

// gateOnPrint is a panic value that opens its gate when it is formatted —
// which ForEach does only after it has stopped the dispatch.
type gateOnPrint struct{ gate chan struct{} }

func (g gateOnPrint) String() string {
	close(g.gate)
	return "cell 2 blew up"
}

// A panicking cell is that index's error, not the end of the process: the
// cells in flight finish, nothing past the failure is dispatched, the pool
// is gone when ForEach returns, and serial and parallel agree. Through Run
// the error carries the cell's parameters like any other.
func TestForEachRecoversPanic(t *testing.T) {
	const n, bad = 8, 2
	for _, width := range []int{1, 4} {
		before := runtime.NumGoroutine()
		gate := make(chan struct{})
		var ran [n]atomic.Bool
		err := ForEach(n, width, func(i int) error {
			ran[i].Store(true)
			if i == bad {
				panic(gateOnPrint{gate})
			}
			if width > 1 && i < 4 {
				// In flight with the panic: held until the dispatch has
				// been stopped, so that what runs after is decided.
				<-gate
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "sweep: trial panicked: cell 2 blew up") || !strings.Contains(err.Error(), "sweep_test.go") {
			t.Errorf("width %d: error %q, want the panic's value and where it was raised", width, err)
		}
		// Serially nothing follows the failure; in parallel at most the one
		// index the dispatcher was already handing out.
		first := map[int]int{1: bad + 1, 4: 5}[width]
		for i := range ran {
			if i <= bad && !ran[i].Load() {
				t.Errorf("width %d: cell %d never ran", width, i)
			}
			if i >= first && ran[i].Load() {
				t.Errorf("width %d: cell %d was dispatched after the failure", width, i)
			}
		}
		// The workers are past wg.Done, on their way out.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("width %d: %d goroutines before, %d after", width, before, after)
		}
	}

	_, err := Run(testGrid(), Options{Parallel: 4}, func(c Config) (Point, error) {
		if c.Str("policy") == "b" && c.Int("nodes") == 2 {
			var m map[string]int
			m["x"]++
		}
		return Point{}, nil
	})
	for _, want := range []string{"trial 4", "policy=b", "nodes=2", "trial panicked", "nil map"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Run's error %q missing %q", err, want)
		}
	}
}

// A campaign with a failing cell keeps nothing of it: each cell runs one
// small world, the last cell's has a rank that panics while the others are
// parked in a barrier, and ForEach ends with that cell's error, every other
// cell's result, and — the kernel having unwound the dead world before the
// panic reached the pool — the goroutine count back where it was once the
// carriers the worlds left idle for the next are gone.
func TestPanickingWorldIsUnwound(t *testing.T) {
	const cells, ranks, bad = 6, 64, 5
	for _, width := range []int{1, 3} {
		sim.NewKernel().Run() // a clean Run of no process leaves no carrier idle
		before := runtime.NumGoroutine()
		var ends [cells]sim.Time
		var unwound atomic.Int32
		err := ForEach(cells, width, func(i int) error {
			w := mpisim.NewWorld(sim.NewKernel(), ranks, nil)
			ends[i] = w.Run(func(r *mpisim.Rank) {
				defer unwound.Add(1)
				r.Proc.Sleep(sim.Duration(1 + r.ID))
				if i == bad && r.ID == ranks/2 {
					panic("rank down")
				}
				r.Comm.Barrier()
			})
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), `sweep: trial panicked: sim: process "rank00032" panicked: rank down`) {
			t.Errorf("width %d: error %q, want the bad cell's panic", width, err)
		}
		for i, end := range ends {
			if i != bad && end < ranks {
				t.Errorf("width %d: cell %d ended at %v, want its world run to the barrier at t >= %d", width, i, end, ranks)
			}
		}
		if got := unwound.Load(); got != cells*ranks {
			t.Errorf("width %d: %d rank programs ran their deferred function, want all %d", width, got, cells*ranks)
		}
		sim.NewKernel().Run()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond) // the pool's workers are past wg.Done, on their way out
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("width %d: %d goroutines before, %d after: the dead world's ranks are still there", width, before, after)
		}
	}
}
