package experiments

import (
	"fmt"
	"strings"

	"picmcio/internal/cluster"
	"picmcio/internal/darshan"
	"picmcio/internal/ior"
	"picmcio/internal/lustre"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
	"picmcio/internal/units"
	"picmcio/internal/workload"
)

// Every figure below is a run list handed to Options.evaluate and a fold
// that keeps what the figure plots.

// acrossNodes expands lines — each a machine and a configuration — into
// one run per node count, line by line.
func (o Options) acrossNodes(lines []Run) []Run {
	var runs []Run
	for _, line := range lines {
		for _, nodes := range o.NodeCounts {
			line.Nodes = nodes
			runs = append(runs, line)
		}
	}
	return runs
}

// scaling measures one write-throughput series per line, named by the
// line's configuration label, across the node counts.
func (o Options) scaling(lines []Run) ([]Series, error) {
	o = o.WithDefaults()
	n := len(o.NodeCounts)
	ss := make([]Series, len(lines))
	for i, line := range lines {
		ss[i] = Series{Label: line.Config.Label, X: make([]float64, n), Y: make([]float64, n)}
	}
	runs := o.acrossNodes(lines)
	err := o.evaluate(runs, func(i int, r *RunResult) error {
		s, j := &ss[i/n], i%n
		s.X[j], s.Y[j] = float64(runs[i].Nodes), r.ThroughputGiBs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ss, nil
}

// onDardel puts configurations on the machine every tuning experiment of
// the paper runs on.
func onDardel(cfgs ...Config) []Run {
	runs := make([]Run, len(cfgs))
	for i, c := range cfgs {
		runs[i] = Run{Machine: cluster.Dardel(), Config: c}
	}
	return runs
}

// Fig2 measures BIT1 original file I/O write throughput on Discoverer,
// Dardel and Vega up to 200 nodes.
func (o Options) Fig2() ([]Series, error) {
	var lines []Run
	for _, m := range cluster.Machines() {
		lines = append(lines, Run{Machine: m, Config: Original.labelled(m.Name)})
	}
	return o.scaling(lines)
}

// Fig3 compares original I/O with openPMD+BP4 on Dardel up to 200 nodes.
func (o Options) Fig3() ([]Series, error) {
	return o.scaling(onDardel(Original, BP4))
}

// The IOR reference lines of Fig. 4.
var (
	IORFilePerProc = Config{Label: "IOR (FilePerProc)", IOR: iorReference(true)}
	IORShared      = Config{Label: "IOR (Shared)", IOR: iorReference(false)}
)

func iorReference(filePerProc bool) func(tasks int) ior.Config {
	return func(tasks int) ior.Config {
		cfg := ior.DefaultConfig(tasks)
		cfg.FilePerProc = filePerProc
		// Keep the per-task block proportional to the BIT1 per-rank payload
		// so event counts stay bounded at 25 600 tasks.
		cfg.BlockSize = workload.Default().PerRankCheckpoint(tasks) * 4
		if cfg.BlockSize < cfg.TransferSize {
			cfg.TransferSize = cfg.BlockSize
		}
		return cfg
	}
}

// runIOR measures one IOR reference point; only the throughput of the
// result is filled.
func (o Options) runIOR(run Run) (*RunResult, error) {
	o = o.WithDefaults()
	sys, err := o.build(run)
	if err != nil {
		return nil, err
	}
	defer sys.Lustre.Release()
	w, envOf, err := sys.Launch(o.RanksPerNode, nil)
	if err != nil {
		return nil, err
	}
	defer w.Release()
	cfg := run.Config.IOR(w.Size)
	// IOR benchmarks large-transfer performance: stripe the shared-file
	// directory wide, as benchmarkers do.
	if !cfg.FilePerProc {
		if err := sys.Lustre.SetStripe(cfg.TestDir, -1, 16<<20); err != nil {
			return nil, err
		}
	}
	res, err := ior.Run(cfg, w, envOf)
	if err != nil {
		return nil, err
	}
	return &RunResult{ThroughputGiBs: units.GiBps(res.WriteBandwidth)}, nil
}

// Fig4 compares BIT1 configurations against the IOR reference.
func (o Options) Fig4() ([]Series, error) {
	return o.scaling(onDardel(Original, BP4, IORFilePerProc, IORShared))
}

// Fig5Result holds the per-process cost decomposition.
type Fig5Result struct {
	Original, OpenPMD struct {
		ReadSec, MetaSec, WriteSec float64
	}
}

// atNodes fixes the node count of a run list.
func atNodes(nodes int, runs []Run) []Run {
	for i := range runs {
		runs[i].Nodes = nodes
	}
	return runs
}

// Fig5 measures average per-process read/metadata/write seconds on 200
// nodes (full-run equivalent), original vs openPMD+BP4.
func (o Options) Fig5(nodes int) (*Fig5Result, error) {
	res := &Fig5Result{}
	err := o.evaluate(atNodes(nodes, onDardel(Original, BP4)), func(i int, r *RunResult) error {
		c := &res.Original
		if i == 1 {
			c = &res.OpenPMD
		}
		c.ReadSec, c.MetaSec, c.WriteSec = r.ReadSec, r.MetaSec, r.WriteSec
		return nil
	})
	return res, err
}

// Fig6Aggregators is the sweep of the paper's Fig. 6.
var Fig6Aggregators = []int{1, 2, 25, 50, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600}

// Fig6 sweeps the aggregator count on a fixed node allocation (paper:
// 200 nodes = 25 600 ranks).
func (o Options) Fig6(nodes int, aggs []int) (Series, error) {
	o = o.WithDefaults()
	if len(aggs) == 0 {
		aggs = Fig6Aggregators
	}
	s := Series{Label: fmt.Sprintf("openPMD+BP4 @%d nodes", nodes)}
	var cfgs []Config
	for _, a := range aggs {
		if a <= nodes*o.RanksPerNode {
			s.X = append(s.X, float64(a))
			cfgs = append(cfgs, bp4(fmt.Sprintf("openPMD+BP4, %d AGGR", a), func(int) int { return a }))
		}
	}
	if len(cfgs) == 0 {
		return s, fmt.Errorf("no aggregator count of %v fits %d nodes × %d ranks", aggs, nodes, o.RanksPerNode)
	}
	s.Y = make([]float64, len(cfgs))
	err := o.evaluate(atNodes(nodes, onDardel(cfgs...)), func(i int, r *RunResult) error {
		s.Y[i] = r.ThroughputGiBs
		return nil
	})
	if err != nil {
		return Series{}, err
	}
	return s, nil
}

// Fig7 compares original I/O with openPMD+BP4+Blosc (1 aggregator) as
// node count scales.
func (o Options) Fig7() ([]Series, error) {
	return o.scaling(onDardel(Original,
		BP4BloscOneAggr.labelled("openPMD+BP4+Blosc 1AGGR"), BP4OneAggr.labelled("openPMD+BP4 1AGGR")))
}

// Fig8Result reports the profiling.json memcpy times (µs) with and
// without compression.
type Fig8Result struct {
	MemcpyMicrosNoComp  float64
	MemcpyMicrosBlosc   float64
	CompressMicrosBlosc float64
}

// Fig8 extracts memory-copy times from profiling.json on a fixed node
// allocation, with and without Blosc (1 aggregator), reproducing the
// "memcpy eliminated under compression" observation.
func (o Options) Fig8(nodes int) (*Fig8Result, error) {
	res := &Fig8Result{}
	err := o.evaluate(atNodes(nodes, onDardel(BP4OneAggr, BP4BloscOneAggr)), func(i int, r *RunResult) error {
		switch {
		case r.Profile == nil:
		case i == 0:
			res.MemcpyMicrosNoComp = float64(r.Profile.Memcpy) * 1e6
		default:
			res.MemcpyMicrosBlosc = float64(r.Profile.Memcpy) * 1e6
			res.CompressMicrosBlosc = float64(r.Profile.Compress) * 1e6
		}
		return nil
	})
	return res, err
}

// Tab1 renders the IOR command lines of Table I.
func Tab1() Table {
	fpp := ior.DefaultConfig(25600)
	fpp.FilePerProc = true
	shared := ior.DefaultConfig(25600)
	return Table{
		Title:  "Table I: IOR command lines on Dardel LFS (200 nodes)",
		Header: []string{"benchmark", "command"},
		Rows: [][]string{
			{IORFilePerProc.Label, fpp.CommandLine()},
			{IORShared.Label, shared.CommandLine()},
		},
	}
}

// Tab2 regenerates Table II: written file counts and sizes per
// configuration and node count.
func (o Options) Tab2() (Table, error) {
	o = o.WithDefaults()
	t := Table{
		Title:  "Table II: BIT1 write files on Dardel CPU LFS",
		Header: []string{"configuration", "nodes", "total files", "avg size", "max size"},
	}
	runs := o.acrossNodes(onDardel(Tab2Configs...))
	t.Rows = make([][]string, len(runs))
	err := o.evaluate(runs, func(i int, r *RunResult) error {
		t.Rows[i] = []string{
			runs[i].Config.Label, fmt.Sprint(runs[i].Nodes), fmt.Sprint(r.Files.Count),
			units.Bytes(r.Files.AvgBytes), units.Bytes(r.Files.MaxBytes),
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	return t, nil
}

// Fig9StripeSizes and Fig9OSTCounts are the paper's sweep axes.
var (
	Fig9StripeSizes = []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20}
	Fig9OSTCounts   = []int{1, 2, 4, 8, 16, 32, 48}
)

// Fig9 sweeps Lustre stripe size × stripe count for openPMD+BP4+Blosc
// with one aggregator. It returns the rendered grid and the seconds
// behind it: sec[i][j] is the aggregator's time per data write call at
// sizes[i] × counts[j].
func (o Options) Fig9(nodes int, sizes []int64, counts []int) (Table, [][]float64, error) {
	o = o.WithDefaults()
	// One output epoch is what the paper times.
	o.DiagEpochs = 1
	if len(sizes) == 0 {
		sizes = Fig9StripeSizes
	}
	if len(counts) == 0 {
		counts = Fig9OSTCounts
	}
	t := Table{
		Title:  fmt.Sprintf("Fig 9: write time (s), openPMD+BP4+Blosc, 1 AGGR, %d nodes", nodes),
		Header: []string{"stripe size"},
	}
	for _, c := range counts {
		t.Header = append(t.Header, fmt.Sprintf("%d OST", c))
	}
	var runs []Run
	for _, size := range sizes {
		for _, count := range counts {
			runs = append(runs, Run{Machine: cluster.Dardel(), Nodes: nodes, Config: BP4BloscOneAggr, StripeCount: count, StripeSize: size})
		}
	}
	sec := make([][]float64, len(sizes))
	for i := range sec {
		sec[i] = make([]float64, len(counts))
	}
	err := o.evaluate(runs, func(i int, r *RunResult) error {
		var writeSec float64
		var writes int64
		for rec := range r.Darshan.All() {
			if strings.Contains(rec.Path, ".bp4/data.") {
				writeSec += rec.FCount[darshan.POSIX_F_WRITE_TIME]
				writes += rec.Counters[darshan.POSIX_WRITES]
			}
		}
		if writes == 0 {
			return fmt.Errorf("fig9: no data subfile writes recorded")
		}
		sec[i/len(counts)][i%len(counts)] = writeSec / float64(writes)
		return nil
	})
	if err != nil {
		return Table{}, nil, err
	}
	for i, size := range sizes {
		row := []string{units.Bytes(size)}
		for _, v := range sec[i] {
			row = append(row, units.Seconds(v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, sec, nil
}

// Listing1 reproduces the paper's Listing 1 on a simulated Dardel: create
// a striped file and render its layout as `lfs getstripe` would.
func Listing1() (string, error) {
	return StripeListing("/io_openPMD/dat_file.bp4/data.0", 8, 16<<20)
}

// StripeListing creates the file at path on a fresh simulated Dardel,
// with its directory striped count × size, and renders its layout as
// `lfs getstripe` would.
func StripeListing(path string, count int, size int64) (string, error) {
	path = pfs.Clean(path)
	dir, _ := pfs.Split(path)
	m := cluster.Dardel()
	k := m.NewKernel(1)
	sys, err := m.Build(k, 1, 1)
	if err != nil {
		return "", err
	}
	if err := sys.Lustre.SetStripe(dir, count, size); err != nil {
		return "", err
	}
	var createErr error
	k.Spawn("w", func(p *sim.Proc) {
		env := &posix.Env{FS: sys.FS, Client: sys.Clients[0]}
		fd, err := env.Create(p, path)
		if err != nil {
			createErr = err
			return
		}
		fd.Write(p, 64<<20, nil)
		fd.Close(p)
	})
	k.Run()
	if createErr != nil {
		return "", createErr
	}
	lay, err := sys.Lustre.GetStripe(path)
	if err != nil {
		return "", err
	}
	return lustre.FormatGetStripe(path[1:], lay), nil
}
