// Trace format and synthetic workload generation for the batch
// scheduler. A trace is the replayable submission log — plain text, one
// job per line — so a scheduling comparison can be pinned to an exact
// job stream (the figsched artifact replays the same trace through
// every policy, which is what makes its policy deltas meaningful).
package sched

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"picmcio/internal/cluster"
	"picmcio/internal/fault"
	"picmcio/internal/jobs"
	"picmcio/internal/units"
	"picmcio/internal/xrand"
)

// SizeClass is a named job shape: the node width and workload a class
// member runs, and the weight with which the synthesizer draws it. The
// Spec method instantiates the shape on a machine preset, so one class
// list serves every machine in a sweep.
type SizeClass struct {
	Name   string
	Nodes  int
	Weight float64
	// Workload is the per-class science payload (epochs, checkpoint and
	// diagnostic bytes, compute per epoch).
	Workload jobs.Workload
	// Direct bypasses the machine's burst-buffer preset: the class writes
	// straight to the PFS, making it the I/O bully of a mixed queue.
	Direct bool
}

// Spec instantiates the class on a machine preset, staging through the
// machine's burst-buffer preset unless the class is Direct.
func (c SizeClass) Spec(m cluster.Machine) jobs.Spec {
	s := jobs.Spec{
		Name:        c.Name,
		Nodes:       c.Nodes,
		Workload:    c.Workload,
		StripeCount: -1,
	}
	if !c.Direct {
		s.Burst = m.Burst
	}
	return s
}

// DefaultClasses is the standard four-shape mix the figsched artifact
// queues: narrow and medium staged jobs (the bulk of a production
// queue), a wide staged job (the backfill problem case), and a direct
// PFS writer (the contention source). Weights follow the usual
// many-small/few-wide skew of real batch logs.
func DefaultClasses() []SizeClass {
	base := jobs.BulkWriter{
		Epochs:          3,
		CheckpointBytes: 96 * units.MiB,
		DiagBytes:       32 * units.MiB,
		// Compute dominates an epoch (as it does in production PIC runs);
		// the I/O share is what stretches under PFS contention.
		ComputeSec: 0.2,
	}
	narrow, medium, wide, bully := base, base, base, base
	medium.CheckpointBytes = 192 * units.MiB
	wide.CheckpointBytes = 256 * units.MiB
	wide.ComputeSec = 0.3
	bully.CheckpointBytes = 512 * units.MiB
	bully.DiagBytes = 128 * units.MiB
	return []SizeClass{
		{Name: "narrow", Nodes: 2, Weight: 0.45, Workload: narrow},
		{Name: "medium", Nodes: 4, Weight: 0.30, Workload: medium},
		{Name: "wide", Nodes: 16, Weight: 0.10, Workload: wide},
		{Name: "direct", Nodes: 4, Weight: 0.15, Workload: bully, Direct: true},
	}
}

// Synth parameterizes synthetic job-stream generation: per-tenant user
// populations submitting with exponential interarrival gaps (the same
// Poisson machinery fault.Arrivals uses for node failures, repurposed
// for submissions).
type Synth struct {
	// Tenants is the number of independent tenants (default 8 — enough
	// for an N ≫ 2 Jain fairness reading).
	Tenants int
	// Users is the submitting-user population per tenant (default 4).
	Users int
	// SubmitMeanHours is each user's mean gap between submissions; the
	// tenant's aggregate rate is Users/SubmitMeanHours (required > 0).
	SubmitMeanHours float64
	// SpanHours is the submission window; jobs arrive in [0, SpanHours)
	// (default 48).
	SpanHours float64
	// Classes is the shape mix (default DefaultClasses()).
	Classes []SizeClass
	// Seed drives arrival times and class draws. Each tenant consumes an
	// independent SeedAt-derived stream, so adding a tenant never
	// perturbs the others' submissions.
	Seed uint64
	// TenantWeights skews the per-tenant offered load: tenant t submits
	// at TenantWeights[t] times the base rate (its users' mean submission
	// gap is SubmitMeanHours/TenantWeights[t]). Entries must be > 0;
	// tenants beyond the slice default to weight 1. Nil keeps the uniform
	// historical stream byte-identical. SubmitMeanForLoad accounts for
	// the weights, so a calibrated load factor means the same thing
	// skewed or not.
	TenantWeights []float64
}

func (s Synth) withDefaults() Synth {
	if s.Tenants == 0 {
		s.Tenants = 8
	}
	if s.Users == 0 {
		s.Users = 4
	}
	if s.SpanHours == 0 {
		s.SpanHours = 48
	}
	if len(s.Classes) == 0 {
		s.Classes = DefaultClasses()
	}
	return s
}

// Synthesize generates the job stream: one fault.Arrivals draw per
// tenant (mean SubmitMeanHours per user, Users users, over SpanHours),
// each arrival assigned a weighted-random size class. Jobs are returned
// in submission order with IDs 1..n; the result is a pure function of
// the Synth fields, so equal configs replay identical streams.
func Synthesize(m cluster.Machine, s Synth) ([]Job, error) {
	s = s.withDefaults()
	if s.SubmitMeanHours <= 0 {
		return nil, fmt.Errorf("sched: Synth.SubmitMeanHours must be > 0 (got %v)", s.SubmitMeanHours)
	}
	total := 0.0
	for _, c := range s.Classes {
		if c.Weight < 0 {
			return nil, fmt.Errorf("sched: class %q has negative weight", c.Name)
		}
		total += c.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("sched: class weights sum to zero")
	}
	if len(s.TenantWeights) > s.Tenants {
		return nil, fmt.Errorf("sched: %d tenant weights for %d tenants", len(s.TenantWeights), s.Tenants)
	}
	for t, w := range s.TenantWeights {
		if w <= 0 {
			return nil, fmt.Errorf("sched: tenant %d weight %v must be > 0", t, w)
		}
	}
	// Every tenant's arrivals first, so the stream is sized once.
	times, picks := make([][]float64, s.Tenants), make([]*xrand.RNG, s.Tenants)
	n := 0
	for t := range times {
		rng := xrand.New(xrand.SeedAt(s.Seed, uint64(t)))
		mean := s.SubmitMeanHours
		if t < len(s.TenantWeights) {
			mean = s.SubmitMeanHours / s.TenantWeights[t]
		}
		times[t] = fault.Arrivals(rng.Split(0), mean, s.Users, s.SpanHours)
		picks[t] = rng.Split(1)
		n += len(times[t])
	}
	js := make([]Job, 0, n)
	for t, pick := range picks {
		tenant := fmt.Sprintf("tenant%02d", t)
		for _, at := range times[t] {
			w := pick.Float64() * total
			ci := 0
			for ci < len(s.Classes)-1 && w >= s.Classes[ci].Weight {
				w -= s.Classes[ci].Weight
				ci++
			}
			c := s.Classes[ci]
			js = append(js, Job{
				Tenant:      tenant,
				Class:       c.Name,
				Nodes:       c.Nodes,
				SubmitHours: at,
				Spec:        c.Spec(m),
			})
		}
	}
	// Merge the per-tenant streams into one submission-ordered log and
	// assign IDs in that order (ties break by tenant, which is fixed
	// before IDs exist — keeps the merge deterministic).
	slices.SortStableFunc(js, func(a, b Job) int {
		if a.SubmitHours != b.SubmitHours {
			return cmp.Compare(a.SubmitHours, b.SubmitHours)
		}
		return strings.Compare(a.Tenant, b.Tenant)
	})
	for i := range js {
		js[i].ID = i + 1
	}
	return js, nil
}

// SubmitMeanForLoad calibrates Synth.SubmitMeanHours so the synthetic
// stream offers the given load factor on a partition: load 1.0 means
// the expected node-hour demand rate equals the partition's capacity
// (load > 1 saturates, building a persistent queue). The expectation is
// taken over the class weights with service times from the pricer, so
// the calibration reflects what the jobs actually cost on the machine.
func SubmitMeanForLoad(pr *Pricer, m cluster.Machine, s Synth, load float64, partition int) (float64, error) {
	s = s.withDefaults()
	if load <= 0 || partition <= 0 {
		return 0, fmt.Errorf("sched: load %v on %d nodes is not calibratable", load, partition)
	}
	wsum, nsvc := 0.0, 0.0
	for _, c := range s.Classes {
		p, err := pr.Price(c.Spec(m))
		if err != nil {
			return 0, err
		}
		wsum += c.Weight
		nsvc += c.Weight * float64(c.Nodes) * p.ServiceHours
	}
	if wsum <= 0 || nsvc <= 0 {
		return 0, fmt.Errorf("sched: degenerate class mix (weight sum %v, node-service %v)", wsum, nsvc)
	}
	meanNodeServiceH := nsvc / wsum
	// jobs/hour needed to offer load×partition node-hours per hour,
	// spread over the total submitting-user population (weighted: a
	// tenant at weight w submits like w tenants' worth of users).
	rate := load * float64(partition) / meanNodeServiceH
	if len(s.TenantWeights) > 0 {
		wsumT := 0.0
		for t := 0; t < s.Tenants; t++ {
			w := 1.0
			if t < len(s.TenantWeights) {
				w = s.TenantWeights[t]
			}
			wsumT += w
		}
		return wsumT * float64(s.Users) / rate, nil
	}
	return float64(s.Tenants*s.Users) / rate, nil
}

// traceHeader identifies the trace format; bump the version if the
// column set changes.
const traceHeader = "#schedtrace v1"

// WriteTrace serializes the stream as a replayable text trace: a header
// line, then one "id tenant class nodes submit_hours" line per job.
// Specs are not serialized — ReadTrace reconstructs them from a class
// list — so a trace stays machine-portable.
func WriteTrace(w io.Writer, js []Job) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, traceHeader)
	fmt.Fprintln(bw, "# id tenant class nodes submit_hours")
	for _, j := range js {
		// Shortest exact float form, so replaying a written trace is
		// bit-identical to running the stream it came from.
		fmt.Fprintf(bw, "%d %s %s %d %s\n", j.ID, j.Tenant, j.Class, j.Nodes,
			strconv.FormatFloat(j.SubmitHours, 'g', -1, 64))
	}
	return bw.Flush()
}

// ReadTrace parses a trace written by WriteTrace, instantiating each
// job's spec from the named class on the given machine (the line's node
// count overrides the class default, so hand-edited traces can resize
// jobs without defining a new class). Blank lines and #-comments after
// the header are ignored.
func ReadTrace(r io.Reader, m cluster.Machine, classes []SizeClass) ([]Job, error) {
	if len(classes) == 0 {
		classes = DefaultClasses()
	}
	byName := map[string]SizeClass{}
	for _, c := range classes {
		byName[c.Name] = c
	}
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("sched: empty trace")
	}
	if got := strings.TrimSpace(sc.Text()); got != traceHeader {
		return nil, fmt.Errorf("sched: bad trace header %q (want %q)", got, traceHeader)
	}
	var js []Job
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var (
			id, nodes    int
			tenant, name string
			at           float64
		)
		if _, err := fmt.Sscanf(text, "%d %s %s %d %g", &id, &tenant, &name, &nodes, &at); err != nil {
			return nil, fmt.Errorf("sched: trace line %d: %v", line, err)
		}
		if nodes < 1 {
			return nil, fmt.Errorf("sched: trace line %d: job %d needs %d nodes", line, id, nodes)
		}
		if math.IsNaN(at) || math.IsInf(at, 0) {
			return nil, fmt.Errorf("sched: trace line %d: job %d has non-finite submit_hours %v", line, id, at)
		}
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("sched: trace line %d: unknown size class %q", line, name)
		}
		spec := c.Spec(m)
		spec.Nodes = nodes
		js = append(js, Job{ID: id, Tenant: tenant, Class: name, Nodes: nodes, SubmitHours: at, Spec: spec})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return js, nil
}
