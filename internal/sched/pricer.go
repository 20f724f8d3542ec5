package sched

import (
	"fmt"

	"picmcio/internal/cluster"
	"picmcio/internal/jobs"
	"picmcio/internal/sweep"
)

// Price is one job shape's scheduling-relevant cost summary, measured by
// running the shape through the full co-schedule machinery on an
// otherwise idle machine.
type Price struct {
	// ServiceHours is the isolated durable-completion time on the
	// campaign clock: sim seconds scaled by EpochHours per compute phase.
	ServiceHours float64
	// EstimateHours is the walltime estimate the scheduler plans against:
	// ServiceHours padded by the pricer's EstimateError multiplier. With
	// a zero error it equals ServiceHours (the perfect-oracle default).
	EstimateHours float64
	// DrainBps is the job's PFS write-back demand in simulation
	// bytes/second (drain bandwidth for staged jobs, client bandwidth for
	// direct writers) — the numerator of the contention stretch model.
	DrainBps float64
	// IOFrac is the fraction of the service time attributable to I/O
	// rather than compute; only this fraction stretches under contention.
	IOFrac float64
}

// Pricer prices job shapes via jobs.Run and memoizes by shape: a queue
// of thousands of jobs drawn from a handful of size classes costs a
// handful of simulations, not thousands. The cache is keyed on the probe
// spec itself — the job's spec under a canonical name and without its
// fault — so two jobs price identically exactly when their probe runs
// would be identical.
type Pricer struct {
	m          cluster.Machine
	seed       uint64
	epochHours float64
	cache      map[jobs.Spec]Price

	// EstimateError is the deterministic walltime-estimate error the
	// scheduler plans against: every Price's EstimateHours is
	// ServiceHours × (1 + EstimateError). Production users pad their
	// walltime requests — often severely — and backfill planners see the
	// padded number, not the truth; 0 (the default) keeps the historical
	// perfect oracle. Must be >= 0: estimates are padded, never short.
	EstimateError float64
}

// NewPricer builds a pricer for machine m. epochHours anchors the
// campaign clock (one compute phase = one epoch = epochHours production
// hours, the convention the failure campaigns use).
func NewPricer(m cluster.Machine, seed uint64, epochHours float64) *Pricer {
	if epochHours <= 0 {
		epochHours = 6
	}
	return &Pricer{m: m, seed: seed, epochHours: epochHours, cache: map[jobs.Spec]Price{}}
}

// probeOf is the spec a shape is priced by, and cached under: an
// isolated run under a canonical name, so the price depends on the
// shape, not on which queued job first exercised it.
func probeOf(spec jobs.Spec) jobs.Spec {
	spec.Name = "price"
	spec.Fault = nil
	return spec
}

// Price returns the shape's cost summary, simulating it on first sight.
func (p *Pricer) Price(spec jobs.Spec) (Price, error) {
	probe := probeOf(spec)
	if pr, ok := p.cache[probe]; ok {
		return p.estimate(pr), nil
	}
	pr, err := p.priceUncached(spec)
	if err != nil {
		return Price{}, err
	}
	p.cache[probe] = pr
	return p.estimate(pr), nil
}

// priceUncached measures one shape by simulating its probe spec, without
// touching the cache — the shared core of Price and Prewarm. The result
// depends only on the probe, the machine, and the pricer's seed, so
// concurrent callers on distinct probes are independent.
func (p *Pricer) priceUncached(spec jobs.Spec) (Price, error) {
	res, err := jobs.Run(p.m, []jobs.Spec{probeOf(spec)}, p.seed)
	if err != nil {
		return Price{}, fmt.Errorf("sched: pricing %q: %w", spec.Name, err)
	}
	r := res[0]
	sh := spec.Workload.Shape()
	computeSec := float64(sh.Epochs) * float64(sh.ComputeSec)
	// Clock anchor: one compute phase stands for epochHours production
	// hours. A pure-I/O shape (no compute) falls back to 1 sim second =
	// one production hour, so it still gets a nonzero, deterministic
	// service time.
	hoursPerSimSec := 1.0
	if sh.ComputeSec > 0 {
		hoursPerSimSec = p.epochHours / float64(sh.ComputeSec)
	}
	pr := Price{ServiceHours: r.DurableSec * hoursPerSimSec, DrainBps: r.FairShareBps()}
	if r.DurableSec > 0 && computeSec < r.DurableSec {
		pr.IOFrac = (r.DurableSec - computeSec) / r.DurableSec
	}
	return pr, nil
}

// Prewarm prices every distinct shape of the stream up front, running
// the probe simulations concurrently on the sweep engine's bounded
// worker pool (parallel <= 1: serial). Every probe uses the same seed
// a cold Price call would, and the cache is filled serially after the
// pool drains, so the cache Prewarm builds is byte-identical to the
// one lazy serial pricing would have built — only the wall-clock cost
// moves. Already-cached and duplicate shapes cost nothing; on error
// the lowest-stream-index failure is returned and no result is cached.
func (p *Pricer) Prewarm(stream []Job, parallel int) error {
	var specs []jobs.Spec
	seen := map[jobs.Spec]bool{}
	for i := range stream {
		spec := stream[i].Spec
		probe := probeOf(spec)
		if seen[probe] {
			continue
		}
		seen[probe] = true
		if _, ok := p.cache[probe]; ok {
			continue
		}
		specs = append(specs, spec)
	}
	prices := make([]Price, len(specs))
	err := sweep.ForEach(len(specs), parallel, func(i int) error {
		pr, err := p.priceUncached(specs[i])
		if err != nil {
			return err
		}
		prices[i] = pr
		return nil
	})
	if err != nil {
		return err
	}
	for i, spec := range specs {
		p.cache[probeOf(spec)] = prices[i]
	}
	return nil
}

// estimate stamps the pricer's walltime-estimate padding onto a cached
// base price; the cache stores ground truth so EstimateError can change
// between Price calls without re-simulating.
func (p *Pricer) estimate(pr Price) Price {
	pr.EstimateHours = pr.ServiceHours * (1 + p.EstimateError)
	return pr
}

// Shapes reports how many distinct shapes have been priced (i.e. how
// many simulations the memoization has paid for).
func (p *Pricer) Shapes() int { return len(p.cache) }
