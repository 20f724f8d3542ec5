package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// printReport writes every metric by name with its unit: the end-to-end
// block per workload, then the per-layer ledger.
func printReport(w io.Writer, res Result) {
	fmt.Fprintf(w, "# picmcio benchmark: seed %d, %d rounds, P=%d, %s\n", res.Seed, res.Rounds, res.P, res.GoVersion)
	fmt.Fprintf(w, "# each value is the median over the rounds; n is too small for any percentile above it, so min and max stand in\n\n")
	for _, wl := range Workloads {
		r := res.Workloads[wl.Name]
		if r == nil {
			continue
		}
		fmt.Fprintf(w, "%s: ops_total=%d ops_failed=%d\n", wl.Name, r.OpsTotal, r.OpsFailed)
		for _, f := range r.Failures {
			fmt.Fprintf(w, "  FAILED %s\n", f)
		}
		for _, m := range EndToEnd {
			st, ok := r.EndToEnd[m.Name]
			if !ok {
				fmt.Fprintf(w, "  %-14s (no successful pass)\n", m.Name)
				continue
			}
			fmt.Fprintf(w, "  %-14s %12.4f %-4s (min %.4f, max %.4f, n=%d; bound %.0f%%)\n",
				m.Name, st.Value, m.Unit, st.Min, st.Max, st.N, 100*m.Bound)
		}
		if st := r.PerLayer["wall_s"]; st.Value > 0 {
			fmt.Fprintf(w, "  %-14s %12.4f %-4s (min %.4f, max %.4f, n=%d; not gated, see README)\n",
				"wall_s", st.Value, st.Unit, st.Min, st.Max, st.N)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "# per-layer ledger (one traced cell per workload, tracing off for everything above; * = exact count)\n")
	fmt.Fprintf(w, "%-34s %-6s", "metric", "unit")
	for _, wl := range Workloads {
		fmt.Fprintf(w, " %14s", wl.Name)
	}
	fmt.Fprintln(w)
	for _, m := range PerLayer {
		name := m.Name
		if m.Exact {
			name += " *"
		}
		fmt.Fprintf(w, "%-34s %-6s", name, m.Unit)
		for _, wl := range Workloads {
			v := math.NaN()
			if r := res.Workloads[wl.Name]; r != nil {
				v = r.PerLayer[m.Name].Value
			}
			fmt.Fprintf(w, " %14.6g", v)
		}
		fmt.Fprintln(w)
	}
}

func readResult(path string) (Result, error) {
	var r Result
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles reports whether two full runs agree: every end-to-end
// metric within its bound of the other run's, either way round, and
// every exact per-layer count identical. Host seconds beyond their bound
// are unresolved, not a disagreement. It returns the exit code.
func compareFiles(pathA, pathB string) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if breaches := compareResults(os.Stdout, a, b); breaches > 0 {
		fmt.Printf("\n%d breach(es)\n", breaches)
		return 1
	}
	fmt.Println("\nthe two runs agree")
	return 0
}

func compareResults(w io.Writer, a, b Result) (breaches int) {
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "BREACH seeds differ: %d vs %d\n", a.Seed, b.Seed)
		breaches++
	}
	for _, wl := range Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "BREACH %s: missing from a run\n", wl.Name)
			breaches++
			continue
		}
		if ra.OpsFailed > 0 || rb.OpsFailed > 0 {
			fmt.Fprintf(w, "BREACH %s: failed operations (%d, %d)\n", wl.Name, ra.OpsFailed, rb.OpsFailed)
			breaches++
		}
		for _, m := range EndToEnd {
			va, vb := ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value
			rel := math.Inf(1)
			if va > 0 && vb > 0 {
				rel = math.Abs(vb-va) / math.Min(va, vb)
			}
			verdict := "ok"
			switch {
			case rel > m.Bound && m.HostTime:
				verdict = "unresolved"
			case rel > m.Bound:
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-10s %-13s %-14s %12.4f %12.4f %-4s %+7.2f%% (bound %.0f%%)\n",
				verdict, wl.Name, m.Name, va, vb, m.Unit, 100*(vb-va)/va, 100*m.Bound)
		}
		// The user's seconds are shown, never judged: two runs minutes
		// apart differ by more than any bound (README, "Seconds").
		va, vb := ra.PerLayer["wall_s"].Value, rb.PerLayer["wall_s"].Value
		fmt.Fprintf(w, "%-10s %-13s %-14s %12.4f %12.4f %-4s %+7.2f%% (not gated)\n",
			"info", wl.Name, "wall_s", va, vb, "s", 100*(vb-va)/va)
		for _, m := range PerLayer {
			if !m.Exact {
				continue
			}
			va, vb := ra.PerLayer[m.Name].Value, rb.PerLayer[m.Name].Value
			if va != vb {
				fmt.Fprintf(w, "BREACH %-13s %-34s exact count differs: %v vs %v\n", wl.Name, m.Name, va, vb)
				breaches++
			}
		}
	}
	return breaches
}
