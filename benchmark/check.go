package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Correctness has two halves. At the digest seed the SHA-256 of what the
// CLI would print (text, plus the sweep table's JSON when there is one)
// must equal testdata/digests.json: a simulator speed-up must leave every
// simulated statistic identical, and a deliberate model change refreshes
// the digests in a benchmark PR of its own. At any seed, shape checks on
// the parsed output hold the artifact to the property it exists to show.

const digestSeed = 1

func digestOf(text string, table []byte) string {
	h := sha256.New()
	h.Write([]byte(text))
	h.Write(table)
	return hex.EncodeToString(h.Sum(nil))
}

// digestsPath is where -update-digests writes, relative to the checkout
// root `go run ./benchmark` is started from; reads use the embedded copy.
var digestsPath = filepath.Join("benchmark", "testdata", "digests.json")

//go:embed testdata/digests.json
var digestsJSON []byte

// digests maps "workload/artifact" to the expected digest at digestSeed.
type digests map[string]string

func loadDigests() (digests, error) {
	var d digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsPath, err)
	}
	return d, nil
}

func (d digests) save() error {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath, append(buf, '\n'), 0o644)
}

// seriesRows parses the numeric rows of a RenderSeries block: '#' lines
// and the header are skipped, every following line of numbers is a row
// (x first), up to the first blank line.
func seriesRows(text string) ([][]float64, error) {
	var rows [][]float64
	header := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "#"):
			continue
		case len(f) == 0:
			if len(rows) > 0 {
				return rows, nil
			}
			continue
		case !header:
			header = true
			continue
		}
		row := make([]float64, len(f))
		for i, s := range f {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("row %q: %w", line, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no data rows")
	}
	return rows, nil
}

// tablePoint is one sweep point as Table.JSON() writes it.
type tablePoint struct {
	Params []struct{ Name, Value string }
	Values []struct {
		Name  string
		Value float64
	}
}

func (p tablePoint) param(name string) string {
	for _, q := range p.Params {
		if q.Name == name {
			return q.Value
		}
	}
	return ""
}

func (p tablePoint) value(name string) (float64, error) {
	for _, v := range p.Values {
		if v.Name == name {
			return v.Value, nil
		}
	}
	return 0, fmt.Errorf("point has no value %q", name)
}

func tablePoints(table []byte) ([]tablePoint, error) {
	var t struct{ Points []tablePoint }
	if err := json.Unmarshal(table, &t); err != nil {
		return nil, err
	}
	if len(t.Points) == 0 {
		return nil, fmt.Errorf("table has no points")
	}
	return t.Points, nil
}

func checkShape(artifact, text string, table []byte) error {
	switch artifact {
	case "fig6":
		return checkFig6(text)
	case "fig2":
		return checkFig2(text)
	case "figburst":
		return checkFigBurst(table)
	case "figsched":
		return checkPolicies(table, []string{"machine", "load"}, true)
	case "figfair":
		return checkPolicies(table, []string{"failures"}, false)
	}
	return nil
}

// checkFig6: the throughput optimum is strictly interior to the
// aggregator sweep (too few aggregators serialize, too many swamp the
// OSTs) once the sweep has an interior at all.
func checkFig6(text string) error {
	rows, err := seriesRows(text)
	if err != nil {
		return err
	}
	best := 0
	for i, r := range rows {
		if len(r) != 2 || !(r[1] > 0) || math.IsInf(r[1], 0) {
			return fmt.Errorf("bad row %v", r)
		}
		if r[1] > rows[best][1] {
			best = i
		}
	}
	if len(rows) >= 3 && (best == 0 || best == len(rows)-1) {
		return fmt.Errorf("optimum at aggregators=%g is an end point of the sweep", rows[best][0])
	}
	return nil
}

// checkFig2: every throughput is finite and positive, and Discoverer
// (first column; 4 OSTs behind a modest MDS) is past its peak once the
// run is big enough to saturate it.
func checkFig2(text string) error {
	rows, err := seriesRows(text)
	if err != nil {
		return err
	}
	peak := 0.0
	for _, r := range rows {
		if len(r) < 2 {
			return fmt.Errorf("bad row %v", r)
		}
		for _, y := range r[1:] {
			if !(y > 0) || math.IsInf(y, 0) {
				return fmt.Errorf("throughput %g at %g nodes", y, r[0])
			}
		}
		peak = math.Max(peak, r[1])
	}
	if last := rows[len(rows)-1]; last[0] >= 20 && !(last[1] < peak) {
		return fmt.Errorf("Discoverer still at its peak (%g GiB/s) at %g nodes", last[1], last[0])
	}
	return nil
}

// checkFigBurst: staging never loses to direct I/O at any node count.
func checkFigBurst(table []byte) error {
	pts, err := tablePoints(table)
	if err != nil {
		return err
	}
	for _, p := range pts {
		d, err := p.value("direct_gibps")
		if err != nil {
			return err
		}
		s, err := p.value("staged_gibps")
		if err != nil {
			return err
		}
		if !(d > 0) || !(s >= d) {
			return fmt.Errorf("nodes=%s: staged %g GiB/s < direct %g GiB/s", p.param("nodes"), s, d)
		}
	}
	return nil
}

// checkPolicies: within a cell every policy replays the same stream, so
// job counts are equal; and (figsched) EASY backfill never waits longer
// than FCFS on average.
func checkPolicies(table []byte, cellAxes []string, easyBeatsFCFS bool) error {
	pts, err := tablePoints(table)
	if err != nil {
		return err
	}
	type cell struct {
		jobs float64
		wait map[string]float64
	}
	cells := map[string]*cell{}
	for _, p := range pts {
		var key []string
		for _, a := range cellAxes {
			key = append(key, p.param(a))
		}
		k := strings.Join(key, "/")
		jobs, err := p.value("jobs")
		if err != nil {
			return err
		}
		wait, err := p.value("mean_wait_h")
		if err != nil {
			return err
		}
		c := cells[k]
		if c == nil {
			c = &cell{jobs: jobs, wait: map[string]float64{}}
			cells[k] = c
		}
		if jobs != c.jobs || jobs < 1 {
			return fmt.Errorf("cell %s: %s scheduled %g jobs, another policy %g", k, p.param("policy"), jobs, c.jobs)
		}
		c.wait[p.param("policy")] = wait
	}
	if !easyBeatsFCFS {
		return nil
	}
	for k, c := range cells {
		f, okF := c.wait["fcfs"]
		e, okE := c.wait["easy-backfill"]
		if !okF || !okE {
			return fmt.Errorf("cell %s: missing fcfs or easy-backfill", k)
		}
		if e > f {
			return fmt.Errorf("cell %s: EASY mean wait %g h > FCFS %g h", k, e, f)
		}
	}
	return nil
}
