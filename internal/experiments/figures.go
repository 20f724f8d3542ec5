package experiments

import (
	"fmt"
	"strings"

	"picmcio/internal/bit1"
	"picmcio/internal/cluster"
	"picmcio/internal/darshan"
	"picmcio/internal/ior"
	"picmcio/internal/lustre"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
	"picmcio/internal/units"
	"picmcio/internal/workload"
)

// defaultBP4TOML is the openPMD configuration with one aggregator per
// node, the ADIOS2 BP4 default the paper's "openPMD + BP4" curves use.
func (o Options) defaultBP4TOML(nodes int) string { return aggrTOML(nodes, "", 1) }

// Fig2 measures BIT1 original file I/O write throughput on Discoverer,
// Dardel and Vega up to 200 nodes.
func (o Options) Fig2() ([]Series, error) {
	o = o.WithDefaults()
	var out []Series
	for _, m := range cluster.Machines() {
		s := Series{Label: m.Name, XLabel: "nodes", YLabel: "GiB/s"}
		for _, nodes := range o.NodeCounts {
			r, err := o.RunBIT1(m, nodes, bit1.IOOriginal, "")
			if err != nil {
				return nil, fmt.Errorf("fig2 %s/%d: %w", m.Name, nodes, err)
			}
			s.X = append(s.X, float64(nodes))
			s.Y = append(s.Y, r.ThroughputGiBs)
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig3 compares original I/O with openPMD+BP4 on Dardel up to 200 nodes.
func (o Options) Fig3() ([]Series, error) {
	o = o.WithDefaults()
	m := cluster.Dardel()
	orig := Series{Label: "BIT1 Original I/O", XLabel: "nodes", YLabel: "GiB/s"}
	bp4 := Series{Label: "BIT1 openPMD + BP4", XLabel: "nodes", YLabel: "GiB/s"}
	for _, nodes := range o.NodeCounts {
		ro, err := o.RunBIT1(m, nodes, bit1.IOOriginal, "")
		if err != nil {
			return nil, err
		}
		rp, err := o.RunBIT1(m, nodes, bit1.IOOpenPMD, o.defaultBP4TOML(nodes))
		if err != nil {
			return nil, err
		}
		orig.X = append(orig.X, float64(nodes))
		orig.Y = append(orig.Y, ro.ThroughputGiBs)
		bp4.X = append(bp4.X, float64(nodes))
		bp4.Y = append(bp4.Y, rp.ThroughputGiBs)
	}
	return []Series{orig, bp4}, nil
}

// runIOR measures the IOR reference lines of Fig. 4 on Dardel.
func (o Options) runIOR(nodes int, filePerProc bool) (float64, error) {
	o = o.WithDefaults()
	m := cluster.Dardel()
	k := m.NewKernel(nodes)
	sys, err := m.Build(k, nodes, o.Seed)
	if err != nil {
		return 0, err
	}
	// IOR benchmarks large-transfer performance: stripe the shared-file
	// directory wide, as benchmarkers do.
	if sys.Lustre != nil && !filePerProc {
		if err := sys.Lustre.SetStripe("/ior", -1, 16<<20); err != nil {
			return 0, err
		}
	}
	ranks := nodes * o.RanksPerNode
	cfg := ior.DefaultConfig(ranks)
	cfg.FilePerProc = filePerProc
	// Keep the per-task block proportional to the BIT1 per-rank payload
	// so event counts stay bounded at 25 600 tasks.
	cfg.BlockSize = workload.Default().PerRankCheckpoint(ranks) * 4
	if cfg.BlockSize < cfg.TransferSize {
		cfg.TransferSize = cfg.BlockSize
	}
	w := mpisim.NewWorld(k, ranks, mpisim.AlphaBeta(m.NetAlpha, m.NetBeta))
	res, err := ior.Run(cfg, w, func(r *mpisim.Rank) *posix.Env {
		node := r.ID / o.RanksPerNode
		if node >= len(sys.Clients) {
			node = len(sys.Clients) - 1
		}
		return &posix.Env{FS: sys.FS, Client: sys.Clients[node], Rank: r.ID}
	})
	if err != nil {
		return 0, err
	}
	return units.GiBps(res.WriteBandwidth), nil
}

// Fig4 compares BIT1 configurations against the IOR reference.
func (o Options) Fig4() ([]Series, error) {
	o = o.WithDefaults()
	base, err := o.Fig3()
	if err != nil {
		return nil, err
	}
	fpp := Series{Label: "IOR (FilePerProc)", XLabel: "nodes", YLabel: "GiB/s"}
	shared := Series{Label: "IOR (Shared)", XLabel: "nodes", YLabel: "GiB/s"}
	for _, nodes := range o.NodeCounts {
		bf, err := o.runIOR(nodes, true)
		if err != nil {
			return nil, err
		}
		bs, err := o.runIOR(nodes, false)
		if err != nil {
			return nil, err
		}
		fpp.X = append(fpp.X, float64(nodes))
		fpp.Y = append(fpp.Y, bf)
		shared.X = append(shared.X, float64(nodes))
		shared.Y = append(shared.Y, bs)
	}
	return append(base, fpp, shared), nil
}

// Fig5Result holds the per-process cost decomposition.
type Fig5Result struct {
	Original, OpenPMD struct {
		ReadSec, MetaSec, WriteSec float64
	}
}

// Fig5 measures average per-process read/metadata/write seconds on 200
// nodes (full-run equivalent), original vs openPMD+BP4.
func (o Options) Fig5(nodes int) (*Fig5Result, error) {
	o = o.WithDefaults()
	m := cluster.Dardel()
	ro, err := o.RunBIT1(m, nodes, bit1.IOOriginal, "")
	if err != nil {
		return nil, err
	}
	rp, err := o.RunBIT1(m, nodes, bit1.IOOpenPMD, o.defaultBP4TOML(nodes))
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{}
	res.Original.ReadSec, res.Original.MetaSec, res.Original.WriteSec = ro.ReadSec, ro.MetaSec, ro.WriteSec
	res.OpenPMD.ReadSec, res.OpenPMD.MetaSec, res.OpenPMD.WriteSec = rp.ReadSec, rp.MetaSec, rp.WriteSec
	return res, nil
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
	m := cluster.Dardel()
	s := Series{Label: fmt.Sprintf("openPMD+BP4 @%d nodes", nodes), XLabel: "aggregators", YLabel: "GiB/s"}
	ranks := nodes * o.RanksPerNode
	for _, a := range aggs {
		if a > ranks {
			continue
		}
		r, err := o.RunBIT1(m, nodes, bit1.IOOpenPMD, aggrTOML(a, "", 1))
		if err != nil {
			return s, err
		}
		s.X = append(s.X, float64(a))
		s.Y = append(s.Y, r.ThroughputGiBs)
	}
	return s, nil
}

// Fig7 compares original I/O with openPMD+BP4+Blosc (1 aggregator) as
// node count scales.
func (o Options) Fig7() ([]Series, error) {
	o = o.WithDefaults()
	m := cluster.Dardel()
	ratio, err := MeasuredRatio("blosc")
	if err != nil {
		return nil, err
	}
	orig := Series{Label: "BIT1 Original I/O", XLabel: "nodes", YLabel: "GiB/s"}
	blosc := Series{Label: "openPMD+BP4+Blosc 1AGGR", XLabel: "nodes", YLabel: "GiB/s"}
	plain := Series{Label: "openPMD+BP4 1AGGR", XLabel: "nodes", YLabel: "GiB/s"}
	for _, nodes := range o.NodeCounts {
		ro, err := o.RunBIT1(m, nodes, bit1.IOOriginal, "")
		if err != nil {
			return nil, err
		}
		rb, err := o.RunBIT1(m, nodes, bit1.IOOpenPMD, aggrTOML(1, "blosc", ratio))
		if err != nil {
			return nil, err
		}
		rp, err := o.RunBIT1(m, nodes, bit1.IOOpenPMD, aggrTOML(1, "", 1))
		if err != nil {
			return nil, err
		}
		orig.X = append(orig.X, float64(nodes))
		orig.Y = append(orig.Y, ro.ThroughputGiBs)
		blosc.X = append(blosc.X, float64(nodes))
		blosc.Y = append(blosc.Y, rb.ThroughputGiBs)
		plain.X = append(plain.X, float64(nodes))
		plain.Y = append(plain.Y, rp.ThroughputGiBs)
	}
	return []Series{orig, blosc, plain}, nil
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
	o = o.WithDefaults()
	m := cluster.Dardel()
	plain, err := o.RunBIT1(m, nodes, bit1.IOOpenPMD, aggrTOML(1, "", 1))
	if err != nil {
		return nil, err
	}
	ratio, err := MeasuredRatio("blosc")
	if err != nil {
		return nil, err
	}
	blosc, err := o.RunBIT1(m, nodes, bit1.IOOpenPMD, aggrTOML(1, "blosc", ratio))
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{}
	if plain.Profile != nil {
		res.MemcpyMicrosNoComp = float64(plain.Profile.Memcpy) * 1e6
	}
	if blosc.Profile != nil {
		res.MemcpyMicrosBlosc = float64(blosc.Profile.Memcpy) * 1e6
		res.CompressMicrosBlosc = float64(blosc.Profile.Compress) * 1e6
	}
	return res, nil
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
			{"IOR (FilePerProc)", fpp.CommandLine()},
			{"IOR (Shared)", shared.CommandLine()},
		},
	}
}

// Tab2Configs names the four Table II configurations.
var Tab2Configs = []string{
	"BIT1 Original I/O",
	"BIT1 openPMD + BP4",
	"BIT1 openPMD + BP4 + 1 AGGR",
	"BIT1 openPMD + BP4 + Blosc + 1 AGGR",
}

// Tab2 regenerates Table II: written file counts and sizes per
// configuration and node count.
func (o Options) Tab2() (Table, error) {
	o = o.WithDefaults()
	m := cluster.Dardel()
	t := Table{
		Title:  "Table II: BIT1 write files on Dardel CPU LFS",
		Header: []string{"configuration", "nodes", "total files", "avg size", "max size"},
	}
	ratio, err := MeasuredRatio("blosc")
	if err != nil {
		return t, err
	}
	for _, cfgName := range Tab2Configs {
		for _, nodes := range o.NodeCounts {
			var r *RunResult
			var err error
			switch cfgName {
			case "BIT1 Original I/O":
				r, err = o.RunBIT1(m, nodes, bit1.IOOriginal, "")
			case "BIT1 openPMD + BP4":
				r, err = o.RunBIT1(m, nodes, bit1.IOOpenPMD, o.defaultBP4TOML(nodes))
			case "BIT1 openPMD + BP4 + 1 AGGR":
				r, err = o.RunBIT1(m, nodes, bit1.IOOpenPMD, aggrTOML(1, "", 1))
			case "BIT1 openPMD + BP4 + Blosc + 1 AGGR":
				r, err = o.RunBIT1(m, nodes, bit1.IOOpenPMD, aggrTOML(1, "blosc", ratio))
			}
			if err != nil {
				return t, fmt.Errorf("tab2 %q/%d: %w", cfgName, nodes, err)
			}
			t.Rows = append(t.Rows, []string{
				cfgName, fmt.Sprint(nodes), fmt.Sprint(r.Files.Count),
				units.Bytes(r.Files.AvgBytes), units.Bytes(r.Files.MaxBytes),
			})
		}
	}
	return t, nil
}

// Fig9StripeSizes and Fig9OSTCounts are the paper's sweep axes.
var (
	Fig9StripeSizes = []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20}
	Fig9OSTCounts   = []int{1, 2, 4, 8, 16, 32, 48}
)

// Fig9 sweeps Lustre stripe size × stripe count for openPMD+BP4+Blosc
// with one aggregator, reporting write seconds per cell.
func (o Options) Fig9(nodes int, sizes []int64, counts []int) (Table, error) {
	o = o.WithDefaults()
	if len(sizes) == 0 {
		sizes = Fig9StripeSizes
	}
	if len(counts) == 0 {
		counts = Fig9OSTCounts
	}
	m := cluster.Dardel()
	ratio, err := MeasuredRatio("blosc")
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  fmt.Sprintf("Fig 9: write time (s), openPMD+BP4+Blosc, 1 AGGR, %d nodes", nodes),
		Header: []string{"stripe size"},
	}
	for _, c := range counts {
		t.Header = append(t.Header, fmt.Sprintf("%d OST", c))
	}
	for _, size := range sizes {
		row := []string{units.Bytes(size)}
		for _, count := range counts {
			sec, err := o.Fig9Cell(m, nodes, count, size, ratio)
			if err != nil {
				return t, err
			}
			row = append(row, units.Seconds(sec))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig9Cell measures the aggregator's data write time for one striping
// configuration; ratio is the Blosc compression ratio (MeasuredRatio).
func (o Options) Fig9Cell(m cluster.Machine, nodes, stripeCount int, stripeSize int64, ratio float64) (float64, error) {
	o = o.WithDefaults()
	// One output epoch is what the paper times.
	o.DiagEpochs, o.CheckpointEpochs = 1, 1
	k := m.NewKernel(nodes)
	sys, err := m.Build(k, nodes, o.Seed)
	if err != nil {
		return 0, err
	}
	if err := sys.Lustre.SetStripe("/scratch", stripeCount, stripeSize); err != nil {
		return 0, err
	}
	ranks := nodes * o.RanksPerNode
	w := mpisim.NewWorld(k, ranks, mpisim.AlphaBeta(m.NetAlpha, m.NetBeta))
	colr := darshan.NewCollector()
	cfg := bit1.Config{
		Deck:           o.deck(),
		Sizing:         workload.Default(),
		OutDir:         "/scratch/bit1",
		Mode:           bit1.IOOpenPMD,
		OpenPMDOptions: aggrTOML(1, "blosc", ratio),
		StdioOverhead:  sim.Duration(m.StdioWriteOverhead),
	}
	var firstErr error
	w.Run(func(r *mpisim.Rank) {
		node := r.ID / o.RanksPerNode
		if node >= len(sys.Clients) {
			node = len(sys.Clients) - 1
		}
		env := &posix.Env{FS: sys.FS, Stage: sys.StagedFS(), Client: sys.Clients[node], Rank: r.ID, Monitor: colr}
		if err := bit1.Run(cfg, bit1.RankEnv{Rank: r, Env: env}); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		return 0, firstErr
	}
	log := colr.Snapshot(darshan.JobMeta{NProcs: ranks, Machine: m.Name, RunSeconds: float64(k.Now())})
	// The quantity Fig. 9 reports: time spent writing the BP4 data
	// payload (per write call, at the aggregator).
	var writeSec float64
	var writes int64
	for i := range log.Records {
		rec := &log.Records[i]
		if isDataSubfile(rec.Path) {
			writeSec += rec.FCount[darshan.POSIX_F_WRITE_TIME]
			writes += rec.Counters[darshan.POSIX_WRITES]
		}
	}
	if writes == 0 {
		return 0, fmt.Errorf("fig9: no data subfile writes recorded")
	}
	return writeSec / float64(writes), nil
}

func isDataSubfile(path string) bool {
	return pfs.Clean(path) != "" && len(path) > 6 && strings.Contains(path, ".bp4/data.")
}

// Listing1 reproduces the paper's Listing 1 on a simulated Dardel: create
// a striped file and render its layout as `lfs getstripe` would.
func Listing1() (string, error) {
	m := cluster.Dardel()
	k := m.NewKernel(1)
	sys, err := m.Build(k, 1, 1)
	if err != nil {
		return "", err
	}
	if err := sys.Lustre.SetStripe("/io_openPMD", 8, 16<<20); err != nil {
		return "", err
	}
	k.Spawn("w", func(p *sim.Proc) {
		env := &posix.Env{FS: sys.FS, Client: sys.Clients[0]}
		fd, err := env.Create(p, "/io_openPMD/dat_file.bp4/data.0")
		if err != nil {
			return
		}
		fd.Write(p, 64<<20, nil)
		fd.Close(p)
	})
	k.Run()
	lay, err := sys.Lustre.GetStripe("/io_openPMD/dat_file.bp4/data.0")
	if err != nil {
		return "", err
	}
	return lustre.FormatGetStripe("io_openPMD/dat_file.bp4/data.0", lay), nil
}
