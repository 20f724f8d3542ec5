// Package sweep is the declarative parameter-grid and campaign engine
// behind every evaluation artifact: named axes crossed into a grid, one
// Trial function evaluated per grid cell, a bounded worker pool with
// deterministic per-trial seed derivation (so a parallel run is
// bit-identical to a serial one), and a unified Table/Point result
// schema with aligned-text and JSON emitters.
//
// The engine deliberately knows nothing about simulations: a Trial is a
// pure function of its Config (parameter values plus a derived seed) to
// a Point (named numeric values plus an optional runner-specific Extra
// payload). Determinism under -parallel N follows from that purity:
// results land at their grid index regardless of completion order, and
// each trial's seed depends only on the run seed and the trial index,
// never on scheduling.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"picmcio/internal/xrand"
)

// Axis is one named sweep parameter and the values it takes. Values may
// be of any type a trial knows how to read back (int, int64, float64,
// string, fmt.Stringer, ...); the typed constructors below cover the
// common cases.
type Axis struct {
	Name   string
	Values []any
}

// Ints builds an int-valued axis.
func Ints(name string, vs []int) Axis {
	a := Axis{Name: name}
	for _, v := range vs {
		a.Values = append(a.Values, v)
	}
	return a
}

// Floats builds a float64-valued axis.
func Floats(name string, vs []float64) Axis {
	a := Axis{Name: name}
	for _, v := range vs {
		a.Values = append(a.Values, v)
	}
	return a
}

// Strings builds a string-valued axis.
func Strings(name string, vs []string) Axis {
	a := Axis{Name: name}
	for _, v := range vs {
		a.Values = append(a.Values, v)
	}
	return a
}

// MarshalJSON renders the axis with its values as display strings, so a
// grid of machine presets or policy enums serializes without the trial's
// domain types leaking into the JSON schema.
func (a Axis) MarshalJSON() ([]byte, error) {
	vs := make([]string, len(a.Values))
	for i, v := range a.Values {
		vs[i] = formatValue(v)
	}
	return json.Marshal(struct {
		Name   string   `json:"name"`
		Values []string `json:"values"`
	}{a.Name, vs})
}

// Grid is the cross product of its axes, enumerated row-major: the last
// axis varies fastest, the first slowest — the nested-loop order the
// hand-rolled figure runners used.
type Grid []Axis

// Size is the number of grid cells (1 for an empty grid: a single
// unparameterized trial, the degenerate campaign).
func (g Grid) Size() int {
	n := 1
	for _, a := range g {
		n *= len(a.Values)
	}
	return n
}

// Validate rejects grids the enumeration cannot handle: empty axes and
// duplicate axis names.
func (g Grid) Validate() error {
	seen := map[string]bool{}
	for _, a := range g {
		if a.Name == "" {
			return fmt.Errorf("sweep: axis with empty name")
		}
		if len(a.Values) == 0 {
			return fmt.Errorf("sweep: axis %q has no values", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("sweep: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// At returns the configuration of grid cell i (row-major), without a
// derived seed — Run fills that in from its options.
func (g Grid) At(i int) Config {
	c := Config{Index: i, axes: g, ords: make([]int, len(g))}
	for ax := len(g) - 1; ax >= 0; ax-- {
		n := len(g[ax].Values)
		c.ords[ax] = i % n
		i /= n
	}
	return c
}

// Config is one trial's parameter assignment: the cell's value on every
// axis, the trial index, and the per-trial derived seed.
type Config struct {
	// Index is the trial's row-major position in the grid.
	Index int
	// Seed is derived from the run seed and Index via xrand.SeedAt:
	// stable across worker counts, independent across trials. Trials
	// that need randomness (stochastic campaigns) must draw from it
	// rather than any shared stream, or parallel runs would diverge.
	Seed uint64

	axes Grid
	ords []int
}

// Value returns the cell's value on the named axis; it panics on an
// unknown axis name (a programming error in the sweep declaration).
func (c Config) Value(name string) any {
	for i, a := range c.axes {
		if a.Name == name {
			return a.Values[c.ords[i]]
		}
	}
	panic(fmt.Sprintf("sweep: no axis %q", name))
}

// Ordinal returns the cell's index along the named axis.
func (c Config) Ordinal(name string) int {
	for i, a := range c.axes {
		if a.Name == name {
			return c.ords[i]
		}
	}
	panic(fmt.Sprintf("sweep: no axis %q", name))
}

// Int reads an int-valued axis.
func (c Config) Int(name string) int { return c.Value(name).(int) }

// Float reads a float64-valued axis.
func (c Config) Float(name string) float64 { return c.Value(name).(float64) }

// Str reads a string-valued axis.
func (c Config) Str(name string) string { return c.Value(name).(string) }

// Params renders the cell's parameter assignment in axis order.
func (c Config) Params() []Param {
	ps := make([]Param, len(c.axes))
	for i, a := range c.axes {
		ps[i] = Param{Name: a.Name, Value: formatValue(a.Values[c.ords[i]])}
	}
	return ps
}

// Param is one name=value parameter of a point, rendered for display.
type Param struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Value is one named numeric result of a point.
type Value struct {
	Name string  `json:"name"`
	V    float64 `json:"value"`
}

// V builds a Value.
func V(name string, v float64) Value { return Value{Name: name, V: v} }

// Point is one grid cell's result: the parameters that produced it, the
// named numeric measurements, and an optional runner-specific payload
// (excluded from JSON — it is for the runner's own table builders).
type Point struct {
	Index  int     `json:"index"`
	Params []Param `json:"params"`
	Values []Value `json:"values"`
	Extra  any     `json:"-"`
}

// Get returns the named value and whether the point carries it.
func (p Point) Get(name string) (float64, bool) {
	for _, v := range p.Values {
		if v.Name == name {
			return v.V, true
		}
	}
	return 0, false
}

// Table is a completed sweep: every point in grid order plus the
// metadata needed to reproduce it.
type Table struct {
	Title  string  `json:"title"`
	Seed   uint64  `json:"seed"`
	Axes   Grid    `json:"axes"`
	Points []Point `json:"points"`
}

// JSON renders the table as stable, indented JSON — the machine-readable
// artifact CI archives next to the text tables.
func (t Table) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Render formats the table as aligned text: one column per axis, then
// one per value name (in first-appearance order across points).
func (t Table) Render() string {
	var header []string
	for _, a := range t.Axes {
		header = append(header, a.Name)
	}
	var names []string
	seen := map[string]bool{}
	for _, p := range t.Points {
		for _, v := range p.Values {
			if !seen[v.Name] {
				seen[v.Name] = true
				names = append(names, v.Name)
			}
		}
	}
	header = append(header, names...)
	rows := make([][]string, len(t.Points))
	for i, p := range t.Points {
		row := make([]string, 0, len(header))
		for _, prm := range p.Params {
			row = append(row, prm.Value)
		}
		for _, n := range names {
			if v, ok := p.Get(n); ok {
				row = append(row, strconv.FormatFloat(v, 'g', 6, 64))
			} else {
				row = append(row, "-")
			}
		}
		rows[i] = row
	}
	return FormatAligned(t.Title, header, rows)
}

// FormatAligned is the shared text-table formatter: a titled block of
// space-aligned columns. Every artifact's text table goes through it.
func FormatAligned(title string, header []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

// Trial evaluates one grid cell. It must be a pure function of its
// Config (any randomness drawn from Config.Seed) for parallel runs to
// be bit-identical to serial ones.
type Trial func(Config) (Point, error)

// Options parameterizes a sweep run.
type Options struct {
	Title string
	// Seed is the run seed every trial's Config.Seed derives from.
	Seed uint64
	// Parallel bounds the worker pool (<= 1: serial). Output is
	// identical at every width.
	Parallel int
}

// ForEach evaluates fn(i) for every i in [0, n) on a bounded worker
// pool of min(parallel, n) goroutines (parallel <= 1: serial, in index
// order). A failing index — an error, or a panic, which becomes that
// index's error with the frames it came from, so that one bad trial
// costs its own result and not the process with every other trial's —
// stops the dispatch: no further indices are handed out, though
// in-flight parallel ones finish, and ForEach returns the lowest-index
// error observed. It is the pool behind Run, exported so other
// deterministic fan-outs (the sched pricer's Prewarm) share one
// concurrency discipline instead of growing their own.
func ForEach(n, parallel int, fn func(i int) error) error {
	_, err := forEach(n, parallel, fn)
	return err
}

// forEach is ForEach, also returning the index its error came from.
func forEach(n, parallel int, fn func(i int) error) (int, error) {
	errs := make([]error, n)
	var failed atomic.Bool
	one := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				failed.Store(true) // stop the dispatch before paying for the stack
				stack := strings.Split(strings.TrimSpace(string(debug.Stack())), "\n")
				// Below the goroutine header, debug.Stack, this closure and
				// panic itself (two lines a frame): where it was raised.
				stack = stack[min(7, len(stack)):]
				errs[i] = fmt.Errorf("sweep: trial panicked: %v\n%s", r, strings.Join(stack[:min(8, len(stack))], "\n"))
			}
		}()
		if err := fn(i); err != nil {
			errs[i] = err
			failed.Store(true)
		}
	}
	if workers := min(parallel, n); workers > 1 {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					one(i)
				}
			}()
		}
		for i := 0; i < n && !failed.Load(); i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	} else {
		for i := 0; i < n && !failed.Load(); i++ {
			one(i)
		}
	}
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return 0, nil
}

// Run evaluates the trial at every cell of the grid and returns the
// points in grid order. Trials run on min(Parallel, Size) workers. A
// failing trial stops the sweep — no further cells are dispatched
// (in-flight parallel trials finish) — and Run returns the
// lowest-index error observed, a panic included, with its parameter
// assignment wrapped in.
func Run(g Grid, opt Options, trial Trial) (Table, error) {
	if err := g.Validate(); err != nil {
		return Table{}, err
	}
	if trial == nil {
		return Table{}, fmt.Errorf("sweep: nil trial")
	}
	n := g.Size()
	t := Table{Title: opt.Title, Seed: opt.Seed, Axes: g, Points: make([]Point, n)}
	i, err := forEach(n, opt.Parallel, func(i int) error {
		c := g.At(i)
		c.Seed = xrand.SeedAt(opt.Seed, uint64(i))
		p, err := trial(c)
		if err != nil {
			return err
		}
		p.Index = i
		if p.Params == nil {
			p.Params = c.Params()
		}
		t.Points[i] = p
		return nil
	})
	if err != nil {
		err = fmt.Errorf("sweep: trial %d (%s): %w", i, paramString(g.At(i).Params()), err)
	}
	return t, err
}

// paramString renders a parameter assignment for error context.
func paramString(ps []Param) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.Name + "=" + p.Value
	}
	return strings.Join(parts, " ")
}

// formatValue renders an axis value for display and JSON.
func formatValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	case fmt.Stringer:
		return x.String()
	}
	return fmt.Sprintf("%v", v)
}
