package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"picmcio/internal/cluster"
	"picmcio/internal/darshan"
	"picmcio/internal/ior"
	"picmcio/internal/pfs"
	"picmcio/internal/sim"
	"picmcio/internal/units"
)

// testOptions keeps unit-test runs light: 8 ranks/node, 2 epochs.
func testOptions() Options {
	return Options{Seed: 1, RanksPerNode: 8, NodeCounts: []int{1, 4}, DiagEpochs: 2}
}

func TestRunBIT1BothModes(t *testing.T) {
	o := testOptions()
	m := cluster.Dardel()
	orig, err := o.RunBIT1(Run{Machine: m, Nodes: 2, Config: Original})
	if err != nil {
		t.Fatal(err)
	}
	bp4, err := o.RunBIT1(Run{Machine: m, Nodes: 2, Config: BP4})
	if err != nil {
		t.Fatal(err)
	}
	if orig.ThroughputGiBs <= 0 || bp4.ThroughputGiBs <= 0 {
		t.Fatalf("throughputs: %v %v", orig.ThroughputGiBs, bp4.ThroughputGiBs)
	}
	if bp4.ThroughputGiBs <= orig.ThroughputGiBs {
		t.Fatalf("BP4 (%v) must beat original (%v)", bp4.ThroughputGiBs, orig.ThroughputGiBs)
	}
	// Table II structure: original = 2·ranks + 6 (+1 for nothing else).
	if orig.Files.Count != 2*16+6 {
		t.Fatalf("original files=%d", orig.Files.Count)
	}
	if bp4.Files.Count != 2+5 {
		t.Fatalf("bp4 files=%d", bp4.Files.Count)
	}
}

// TestLaunchErrors: a bad scale or striping request is an error from the
// launch path, not a goroutine dump. At parent 91d8545 the rank rows died
// with "panic: mpisim: world size must be >= 1" and the stripe row with a
// nil sys.Lustre dereference.
func TestLaunchErrors(t *testing.T) {
	d := cluster.Dardel()
	bit1On := func(m cluster.Machine, nodes, ranksPerNode, stripeCount int) func() error {
		return func() error {
			o := testOptions()
			o.RanksPerNode = ranksPerNode
			_, err := o.RunBIT1(Run{Machine: m, Nodes: nodes, Config: BP4OneAggr, StripeCount: stripeCount, StripeSize: 1 << 20})
			return err
		}
	}
	iorTasks := func(nodes, tasks int) func() error {
		return func() error {
			sys, err := d.Build(d.NewKernel(nodes), nodes, 1)
			if err != nil {
				return err
			}
			w, envOf, err := sys.LaunchN(tasks, nil)
			if err != nil {
				return err
			}
			cfg := ior.DefaultConfig(tasks)
			cfg.BlockSize = cfg.TransferSize
			res, err := ior.Run(cfg, w, envOf)
			if err == nil && res.WriteBytes != int64(tasks)*cfg.BlockSize {
				t.Errorf("ior on %d nodes wrote %d bytes from %d tasks", nodes, res.WriteBytes, tasks)
			}
			return err
		}
	}
	for _, c := range []struct {
		name, want string // want "": must succeed
		run        func() error
	}{
		{"no nodes", "at least one node", bit1On(d, 0, 8, 0)},
		{"more nodes than the machine", "has only 1270 nodes", bit1On(d, d.MaxNodes+1, 8, 0)},
		{"negative ranks per node", "at least one rank per node (got -3)", bit1On(d, 1, -3, 0)},
		{"zero ranks per node", "at least one rank per node (got 0)", func() error {
			sys, err := d.Build(d.NewKernel(1), 1, 1)
			if err == nil {
				_, _, err = sys.Launch(0, nil)
			}
			return err
		}},
		{"no tasks", "at least one rank (got 0)", iorTasks(1, 0)},
		{"fewer IOR tasks than nodes", "", iorTasks(4, 2)},
		{"stripe on Lustre", "", bit1On(d, 1, 4, 4)},
	} {
		err := c.run()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestFileStatsByDirAndName: fileStats tests a file's name and its
// directory apart, and gives what testing its whole path gave — the oracle
// here — also where a directory, not the file, carries "_global_", or a
// name holds a pattern only with its directory's tail.
func TestFileStatsByDirAndName(t *testing.T) {
	o := testOptions().WithDefaults()
	sys, err := cluster.Dardel().Build(sim.NewKernel(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ns := sys.Lustre.Namespace()
	for i, p := range []string{
		"/out/bit1_000001.dat", "/out/bit1_global_0.dat", "/out/f.bp4/md.0", "/out/f.bp4/md.idx",
		"/out/f.bp4/data.0", "/out/run_global_a/x.dat", "/out/run_global_a/deep/y", "/out/a_glo/bal_/z",
		"/out/md/.0", "/out/xmd.0", "/out/_global_", "/out/data_global_/md.idx",
	} {
		n, err := ns.CreateFile(p)
		if err != nil {
			t.Fatal(err)
		}
		pfs.NodeWrite(n, 0, int64(1000+37*i), nil)
	}
	var want FileStats
	ns.WalkFiles("/out", func(path string, n *pfs.Node) {
		size := n.Size
		if strings.HasSuffix(path, "md.0") || strings.HasSuffix(path, "md.idx") || strings.Contains(path, "_global_") {
			size = int64(float64(size) * o.EpochFactor())
		}
		want.Count++
		want.TotalBytes += size
		want.MaxBytes = max(want.MaxBytes, size)
	})
	want.AvgBytes = want.TotalBytes / int64(want.Count)
	if got := o.fileStats(sys, "/out"); got != want {
		t.Fatalf("fileStats = %+v, want %+v", got, want)
	}
	if want.Count != 12 || want.MaxBytes < 1000*int64(o.EpochFactor()) {
		t.Fatalf("oracle saw %+v: the tree is not what the test built", want)
	}
}

func TestEpochExtrapolation(t *testing.T) {
	o := testOptions()
	if f := o.WithDefaults().EpochFactor(); f != 100 {
		t.Fatalf("epoch factor=%v, want 200/2", f)
	}
	m := cluster.Dardel()
	r, err := o.RunBIT1(Run{Machine: m, Nodes: 1, Config: Original})
	if err != nil {
		t.Fatal(err)
	}
	if r.MetaSec <= 0 || r.WriteSec <= 0 {
		t.Fatalf("per-proc times: meta=%v write=%v", r.MetaSec, r.WriteSec)
	}
}

// TestLogReductionsMatchFilter: RunBIT1 reads the Darshan collector in
// place through predicates; what it gets is bit for bit what the Log's
// reductions return on filtered copies of the collector's Snapshot, in
// both modes.
func TestLogReductionsMatchFilter(t *testing.T) {
	o := testOptions()
	once := func(rec *darshan.Record) bool { return strings.HasSuffix(rec.Path, ".inp") }
	perEpoch := func(rec *darshan.Record) bool { return !once(rec) }
	for _, cfg := range []Config{Original, BP4} {
		const nodes = 2
		res, err := o.RunBIT1(Run{Machine: cluster.Dardel(), Nodes: nodes, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		nprocs := nodes * o.RanksPerNode
		col, l := res.Darshan, res.Darshan.Snapshot(darshan.JobMeta{NProcs: nprocs})
		if n, all := len(l.Filter(once).Records), len(l.Records); n == 0 || n == all {
			t.Fatalf("%s: %d of %d records are one-time I/O; the split is not exercised", cfg.Label, n, all)
		}
		if got, want := col.WriteThroughputByElapsed(perEpoch), l.Filter(perEpoch).WriteThroughputByElapsed(); got != want || got <= 0 {
			t.Errorf("%s: throughput in place %v, on the filtered copy %v", cfg.Label, got, want)
		}
		if got := units.GiBps(col.WriteThroughputByElapsed(perEpoch)); got != res.ThroughputGiBs {
			t.Errorf("%s: RunBIT1 reports %v GiB/s, its collector says %v", cfg.Label, res.ThroughputGiBs, got)
		}
		for name, keep := range map[string]func(*darshan.Record) bool{"once": once, "per-epoch": perEpoch} {
			r, m, w := col.PerProcessTimes(nprocs, keep)
			fr, fm, fw := l.Filter(keep).PerProcessTimes()
			if r != fr || m != fm || w != fw || m <= 0 {
				t.Errorf("%s, %s: per-process times in place %v %v %v, on the filtered copy %v %v %v", cfg.Label, name, r, m, w, fr, fm, fw)
			}
		}
	}
}

// TestFig2OriginalStopsScaling ties Fig. 2 to the paper's claim rather
// than to our own golden bytes: at 128 ranks a node the original
// file-per-rank path is past saturation by 10 nodes on all three machines.
// Tripling the ranks buys no aggregate write throughput, while the
// per-process metadata time — the create storm queueing on the MDS — at
// least triples. One file is one Darshan record: every rank's .dat, .dmp
// and input-deck read, plus rank 0's six history files and the output
// directory.
func TestFig2OriginalStopsScaling(t *testing.T) {
	o := Options{Seed: 1, RanksPerNode: 128, DiagEpochs: 2}
	for _, m := range cluster.Machines() {
		at := func(nodes int) *RunResult {
			r, err := o.RunBIT1(Run{Machine: m, Nodes: nodes, Config: Original})
			if err != nil {
				t.Fatal(err)
			}
			records := 0
			for range r.Darshan.All() {
				records++
			}
			if want := 3*nodes*o.RanksPerNode + 7; records != want {
				t.Errorf("%s, %d nodes: %d Darshan records, want %d", m.Name, nodes, records, want)
			}
			return r
		}
		r10, r30 := at(10), at(30)
		t.Logf("%s: 10 → 30 nodes: %.3f → %.3f GiB/s, metadata %.2f → %.2f s per process",
			m.Name, r10.ThroughputGiBs, r30.ThroughputGiBs, r10.MetaSec, r30.MetaSec)
		if r30.ThroughputGiBs > 1.05*r10.ThroughputGiBs {
			t.Errorf("%s: throughput still scales past 10 nodes: %.3f → %.3f GiB/s", m.Name, r10.ThroughputGiBs, r30.ThroughputGiBs)
		}
		if r30.MetaSec < 3*r10.MetaSec {
			t.Errorf("%s: per-process metadata time %.2f → %.2f s, want at least 3x", m.Name, r10.MetaSec, r30.MetaSec)
		}
	}
}

func TestFig5Reduction(t *testing.T) {
	o := testOptions()
	r, err := o.Fig5(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.OpenPMD.MetaSec >= r.Original.MetaSec {
		t.Fatalf("metadata not reduced: %v -> %v", r.Original.MetaSec, r.OpenPMD.MetaSec)
	}
	if r.OpenPMD.WriteSec >= r.Original.WriteSec {
		t.Fatalf("write time not reduced: %v -> %v", r.Original.WriteSec, r.OpenPMD.WriteSec)
	}
	if r.Original.ReadSec <= 0 || r.OpenPMD.ReadSec <= 0 {
		t.Fatal("input-deck reads must appear in both configurations")
	}
}

// benchScale is the smallest scale at which the three shape tests below
// saturate what they probe (the MDS at 160 ranks, the storage backbone at
// 400 aggregators): 16 ranks/node up to 50 nodes.
func benchScale() Options {
	return Options{Seed: 1, RanksPerNode: 16, NodeCounts: []int{1, 10, 50}, DiagEpochs: 2}
}

// TestFig3BP4BeatsOriginal: openPMD+BP4 out-writes the original
// file-per-rank path at every node count, and by more at each step — the
// gap of the paper's Fig. 3 widens with scale.
func TestFig3BP4BeatsOriginal(t *testing.T) {
	ss, err := benchScale().Fig3()
	if err != nil {
		t.Fatal(err)
	}
	orig, bp4 := ss[0], ss[1]
	prev := 0.0
	for i := range orig.Y {
		gap := bp4.Y[i] - orig.Y[i]
		t.Logf("%v nodes: openPMD+BP4 %.4f, original %.4f GiB/s, gap %.4f", orig.X[i], bp4.Y[i], orig.Y[i], gap)
		if gap <= prev {
			t.Errorf("at %v nodes the gap is %.4f GiB/s, not wider than the %.4f before", orig.X[i], gap, prev)
		}
		prev = gap
	}
}

// TestFig7OriginalCrossesOneAggregator: at 128 ranks a node and the CLI's
// five epochs, one aggregator writes at one rate whatever the node count,
// and the original file-per-rank path crosses it twice — under both
// one-aggregator lines at 5 nodes, over them at 10 and under them again at
// 100. Blosc stays within 1 % below the uncompressed line at every point.
func TestFig7OriginalCrossesOneAggregator(t *testing.T) {
	o := Options{Seed: 1, RanksPerNode: 128, NodeCounts: []int{5, 10, 100}}
	ss, err := o.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	orig, blosc, plain := ss[0], ss[1], ss[2]
	for i, above := range []bool{false, true, false} {
		t.Logf("%v nodes: original %.4f, Blosc 1AGGR %.4f, 1AGGR %.4f GiB/s", orig.X[i], orig.Y[i], blosc.Y[i], plain.Y[i])
		lo, hi := min(blosc.Y[i], plain.Y[i]), max(blosc.Y[i], plain.Y[i])
		if above && orig.Y[i] <= hi {
			t.Errorf("at %v nodes the original path writes %.4f GiB/s, want it above both one-aggregator lines (%.4f, %.4f)", orig.X[i], orig.Y[i], blosc.Y[i], plain.Y[i])
		}
		if !above && orig.Y[i] >= lo {
			t.Errorf("at %v nodes the original path writes %.4f GiB/s, want it under both one-aggregator lines (%.4f, %.4f)", orig.X[i], orig.Y[i], blosc.Y[i], plain.Y[i])
		}
		if blosc.Y[i] > plain.Y[i] || blosc.Y[i] < 0.99*plain.Y[i] {
			t.Errorf("at %v nodes Blosc with one aggregator writes %.4f GiB/s, want within 1 %% below %.4f", orig.X[i], blosc.Y[i], plain.Y[i])
		}
	}
}

// TestFig4IORFilePerProcessIsTheEnvelope: IOR file-per-process is the
// reference the paper draws BIT1 against — no BIT1 configuration, original
// or openPMD+BP4, writes faster at any node count.
func TestFig4IORFilePerProcessIsTheEnvelope(t *testing.T) {
	ss, err := benchScale().Fig4()
	if err != nil {
		t.Fatal(err)
	}
	var ior *Series
	for i := range ss {
		if ss[i].Label == IORFilePerProc.Label {
			ior = &ss[i]
		}
	}
	if ior == nil {
		t.Fatalf("Fig. 4 has no %q line", IORFilePerProc.Label)
	}
	for _, s := range ss {
		if s.Label == IORFilePerProc.Label || s.Label == IORShared.Label {
			continue
		}
		for i, y := range s.Y {
			if y > ior.Y[i] {
				t.Errorf("at %v nodes %s writes %.4f GiB/s, above IOR file-per-process's %.4f", s.X[i], s.Label, y, ior.Y[i])
			}
		}
	}
}

// TestAblationMDSThreads: the original path's scalability hinges on
// metadata service concurrency — a one-thread MDS must raise its
// per-process metadata time.
func TestAblationMDSThreads(t *testing.T) {
	o := benchScale()
	weak := cluster.Dardel()
	weak.Lustre.MDSThreads = 1
	strongOrig, err := o.RunBIT1(Run{Machine: cluster.Dardel(), Nodes: 10, Config: Original})
	if err != nil {
		t.Fatal(err)
	}
	weakOrig, err := o.RunBIT1(Run{Machine: weak, Nodes: 10, Config: Original})
	if err != nil {
		t.Fatal(err)
	}
	if weakOrig.MetaSec <= strongOrig.MetaSec {
		t.Fatalf("1-thread MDS metadata time %v, 16-thread %v", weakOrig.MetaSec, strongOrig.MetaSec)
	}
}

// TestAblationBackbone: the Fig. 6 peak is backbone-bound — a 4× storage
// fabric must raise 400-aggregator throughput.
func TestAblationBackbone(t *testing.T) {
	o := benchScale()
	fast := cluster.Dardel()
	fast.Lustre.BackboneRate *= 4
	fast.Lustre.OSTRate *= 4
	aggr400 := bp4("openPMD+BP4, 400 AGGR", func(int) int { return 400 })
	base, err := o.RunBIT1(Run{Machine: cluster.Dardel(), Nodes: 50, Config: aggr400})
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := o.RunBIT1(Run{Machine: fast, Nodes: 50, Config: aggr400})
	if err != nil {
		t.Fatal(err)
	}
	if boosted.ThroughputGiBs <= base.ThroughputGiBs {
		t.Fatalf("4x fabric writes %v GiB/s, base %v", boosted.ThroughputGiBs, base.ThroughputGiBs)
	}
}

func TestFig6ShapeRisesThenFalls(t *testing.T) {
	o := testOptions()
	s, err := o.Fig6(4, []int{1, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Y) != 3 {
		t.Fatalf("points=%d", len(s.Y))
	}
	if s.Y[1] <= s.Y[0] {
		t.Fatalf("aggregation should help: %v", s.Y)
	}
}

// A sweep with no point that fits the allocation is an error, as a
// zero-node run is for every other figure, not an empty figure.
func TestFig6NoAggregatorCountFits(t *testing.T) {
	o := testOptions()
	for _, nodes := range []int{0, -1} {
		if s, err := o.Fig6(nodes, nil); err == nil {
			t.Errorf("Fig6 at %d nodes returned %d points and no error", nodes, len(s.X))
		}
	}
	if _, err := o.Fig6(1, []int{9, 16}); err == nil {
		t.Error("Fig6 with no aggregator count ≤ 8 ranks returned no error")
	}
}

func TestFig8MemcpyElimination(t *testing.T) {
	o := testOptions()
	r, err := o.Fig8(2)
	if err != nil {
		t.Fatal(err)
	}
	if r.MemcpyMicrosNoComp <= 0 {
		t.Fatal("plain run must pay memcpy")
	}
	if r.MemcpyMicrosBlosc != 0 {
		t.Fatalf("blosc run paid %v µs memcpy", r.MemcpyMicrosBlosc)
	}
	if r.CompressMicrosBlosc <= 0 {
		t.Fatal("blosc run must pay compression time")
	}
}

func TestTab1CommandLines(t *testing.T) {
	tab := Tab1()
	out := tab.Render()
	for _, want := range []string{"srun -n 25600 ior", "-a POSIX -F -C -e", "-a POSIX -C -e"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTab2ConstantFilesWith1Aggr(t *testing.T) {
	o := testOptions()
	tab, err := o.Tab2()
	if err != nil {
		t.Fatal(err)
	}
	// Find the 1-AGGR rows: file count must be constant (6) across nodes.
	var counts []string
	for _, row := range tab.Rows {
		if row[0] == BP4OneAggr.Label {
			counts = append(counts, row[2])
		}
	}
	if len(counts) != len(o.WithDefaults().NodeCounts) {
		t.Fatalf("rows=%d", len(counts))
	}
	for _, c := range counts {
		if c != "6" {
			t.Fatalf("1 AGGR file counts=%v, want constant 6", counts)
		}
	}
}

func TestFig9TableShape(t *testing.T) {
	o := testOptions()
	tab, sec, err := o.Fig9(2, []int64{1 << 20, 16 << 20}, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || len(tab.Header) != 3 {
		t.Fatalf("table %dx%d", len(tab.Rows), len(tab.Header))
	}
	// The numbers are the table's cells, before formatting.
	for i, row := range sec {
		for j, s := range row {
			if got := tab.Rows[i][j+1]; got != units.Seconds(s) {
				t.Errorf("cell %d,%d: table says %s, seconds say %v", i, j, got, s)
			}
		}
	}
}

// TestFig9ErrorRendersNoGrid: a failed run returns its error and no
// grid, not a grid with the failed cells left at zero.
func TestFig9ErrorRendersNoGrid(t *testing.T) {
	tab, sec, err := testOptions().Fig9(0, []int64{1 << 20}, []int{1, 8})
	if err == nil || sec != nil || len(tab.Rows) != 0 {
		t.Fatalf("Fig9 at 0 nodes: err %v, sec %v, %d rows", err, sec, len(tab.Rows))
	}
}

func TestFig9StripingHelps(t *testing.T) {
	o := testOptions()
	_, sec, err := o.Fig9(2, []int64{4 << 20}, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if t1, t8 := sec[0][0], sec[0][1]; t8 >= t1 {
		t.Fatalf("8-OST striping (%v) not faster than 1 OST (%v)", t8, t1)
	}
}

func TestListing1Format(t *testing.T) {
	out, err := Listing1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lmm_stripe_count:  8", "lmm_stripe_size:   16777216", "raid0", "obdidx"} {
		if !strings.Contains(out, want) {
			t.Errorf("Listing 1 missing %q:\n%s", want, out)
		}
	}
}

// `lfs getstripe` alone lists a file made under the default layout: one
// object of a 1 MiB stripe, under the path as given, made relative.
func TestStripeListingDefaultLayout(t *testing.T) {
	out, err := StripeListing("a/b/c", 1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	head, objects, ok := strings.Cut(out, "obdidx")
	if !ok || !strings.HasPrefix(head, "a/b/c\n") {
		t.Fatalf("listing has no a/b/c header or no object table:\n%s", out)
	}
	for _, want := range []string{"lmm_stripe_count:  1\n", "lmm_stripe_size:   1048576\n"} {
		if !strings.Contains(head, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(objects, "\n") - 1; n != 1 {
		t.Errorf("listing has %d objects, want 1:\n%s", n, out)
	}
}

func TestMeasuredRatio(t *testing.T) {
	if r, err := MeasuredRatio("none"); err != nil || r != 1 {
		t.Fatalf("none ratio=%v err=%v", r, err)
	}
	rb, err := MeasuredRatio("blosc")
	if err != nil {
		t.Fatal(err)
	}
	if rb <= 0 || rb >= 1 {
		t.Fatalf("blosc ratio=%v, want in (0,1)", rb)
	}
	// Cached second call must agree.
	if rb2, err := MeasuredRatio("blosc"); err != nil || rb2 != rb {
		t.Fatalf("ratio cache inconsistent: %v vs %v (err=%v)", rb, rb2, err)
	}
	// An unknown codec must surface the error, not silently assume 1.
	if r, err := MeasuredRatio("lz-nope"); err == nil {
		t.Fatalf("unknown codec returned ratio %v with no error", r)
	}
}

// TestBP4OptionsNoneIsNoCodec: "none" names no operator, so its TOML is
// the uncompressed one byte for byte, at any aggregator count.
func TestBP4OptionsNoneIsNoCodec(t *testing.T) {
	for _, aggr := range []int{0, 1, 4} {
		none, err := BP4Options(aggr, "none")
		if err != nil {
			t.Fatal(err)
		}
		if plain, _ := BP4Options(aggr, ""); none != plain {
			t.Errorf("aggregators=%d: none renders\n%s\nwant\n%s", aggr, none, plain)
		}
	}
}

func TestRunIOROrdering(t *testing.T) {
	o := testOptions()
	fpp, err := o.runIOR(Run{Machine: cluster.Dardel(), Nodes: 2, Config: IORFilePerProc})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := o.runIOR(Run{Machine: cluster.Dardel(), Nodes: 2, Config: IORShared})
	if err != nil {
		t.Fatal(err)
	}
	if fpp.ThroughputGiBs <= 0 || shared.ThroughputGiBs <= 0 {
		t.Fatalf("ior: fpp=%v shared=%v", fpp.ThroughputGiBs, shared.ThroughputGiBs)
	}
}

func TestRenderSeries(t *testing.T) {
	out := RenderSeries("demo", "nodes", []Series{
		{Label: "a", X: []float64{1, 2}, Y: []float64{0.5, 1.5}},
		{Label: "b", X: []float64{1, 2}, Y: []float64{2.5, 3.5}},
	})
	for _, want := range []string{"# demo", "nodes", "a", "b", "0.5000", "3.5000"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestEvaluateRunsLargestFirst: evaluate launches the largest node count
// first, in list order among equal counts, and folds each run once under
// its list index, with the throughput a standalone RunBIT1 of that run
// measures.
func TestEvaluateRunsLargestFirst(t *testing.T) {
	o := Options{Seed: 1, RanksPerNode: 2, DiagEpochs: 1}
	d := cluster.Dardel()
	runs := []Run{
		{Machine: d, Nodes: 1, Config: Original},
		{Machine: d, Nodes: 3, Config: Original},
		{Machine: d, Nodes: 2, Config: BP4},
		{Machine: d, Nodes: 3, Config: BP4},
	}
	var order []int
	got := make([]float64, len(runs))
	if err := o.evaluate(runs, func(i int, r *RunResult) error {
		order = append(order, i)
		got[i] = r.ThroughputGiBs
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3, 2, 0}; !slices.Equal(order, want) {
		t.Fatalf("fold order %v, want %v", order, want)
	}
	for i, run := range runs {
		r, err := o.RunBIT1(run)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[i]) != math.Float64bits(r.ThroughputGiBs) {
			t.Errorf("run %d (%d nodes): folded %v GiB/s, standalone %v", i, run.Nodes, got[i], r.ThroughputGiBs)
		}
	}
}

// TestScalingIgnoresNodeOrder: Fig. 3 over node counts in any order
// measures the same throughput at each count, and plots the counts in
// the order given.
func TestScalingIgnoresNodeOrder(t *testing.T) {
	o := Options{Seed: 1, RanksPerNode: 2, DiagEpochs: 1}
	o.NodeCounts = []int{1, 2, 4}
	sorted, err := o.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	o.NodeCounts = []int{4, 1, 2}
	shuffled, err := o.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	for l, s := range shuffled {
		if want := []float64{4, 1, 2}; !slices.Equal(s.X, want) {
			t.Fatalf("%s: X %v, want %v", s.Label, s.X, want)
		}
		for j, x := range s.X {
			k := slices.Index(sorted[l].X, x)
			if math.Float64bits(s.Y[j]) != math.Float64bits(sorted[l].Y[k]) {
				t.Errorf("%s at %v nodes: %v GiB/s, %v in ascending order", s.Label, x, s.Y[j], sorted[l].Y[k])
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	o := testOptions()
	m := cluster.Vega() // the jittered machine is the hard case
	a, err := o.RunBIT1(Run{Machine: m, Nodes: 2, Config: Original})
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.RunBIT1(Run{Machine: m, Nodes: 2, Config: Original})
	if err != nil {
		t.Fatal(err)
	}
	if a.ThroughputGiBs != b.ThroughputGiBs {
		t.Fatalf("runs diverged: %v vs %v", a.ThroughputGiBs, b.ThroughputGiBs)
	}
}

func TestFigContention(t *testing.T) {
	st, err := testOptions().FigContentionSweep()
	if err != nil {
		t.Fatal(err)
	}
	tab, rows := contentionTable(st)
	if len(rows) != len(ContentionQoSPolicies) {
		t.Fatalf("rows=%d, want one per policy", len(rows))
	}
	if len(tab.Rows) != 2*len(rows) {
		t.Fatalf("table rows=%d, want two jobs per policy", len(tab.Rows))
	}
	for _, row := range rows {
		res := row.Result
		// Acceptance: co-scheduling must show measurable interference.
		if res.MaxSlowdown() <= 1.0 {
			t.Errorf("%s: max slowdown %.4f, want > 1.0", row.Policy, res.MaxSlowdown())
		}
		if res.Jain <= 0 || res.Jain > 1 {
			t.Errorf("%s: Jain %.4f out of (0,1]", row.Policy, res.Jain)
		}
	}
	// The rate limit must take interference pressure off the neighbour.
	byPolicy := map[string]*ContentionRow{}
	for i := range rows {
		byPolicy[rows[i].Policy] = &rows[i]
	}
	off, lim := byPolicy["qos-off"], byPolicy["rate-limit"]
	if off == nil || lim == nil {
		t.Fatal("policy grid incomplete")
	}
	if lim.Result.Slowdown[1] >= off.Result.Slowdown[1] {
		t.Errorf("rate limit did not reduce the direct job's slowdown: %.3f vs %.3f",
			lim.Result.Slowdown[1], off.Result.Slowdown[1])
	}
	// The model is deterministic: the staged job's write-back bandwidth
	// under the plain scheduler, and what the policies do to the pair.
	pinned(t, "qos-off staged drain GiB/s", units.GiBps(off.Result.Jobs[0].DrainBps), "5.1523")
	pinned(t, "qos-off max slowdown", off.Result.MaxSlowdown(), "1.8859")
	pinned(t, "qos-off Jain", off.Result.Jain, "0.9939")
	pinned(t, "rate-limit direct slowdown", lim.Result.Slowdown[1], "1.7380")
	pinned(t, "rate-limit Jain", lim.Result.Jain, "1.0000")
}

// pinned fails unless got, to four decimals, is want: for a quantity the
// deterministic model produces, where a band would hide a change.
func pinned(t *testing.T, what string, got float64, want string) {
	t.Helper()
	if s := fmt.Sprintf("%.4f", got); s != want {
		t.Errorf("%s = %s, want %s", what, s, want)
	}
}

func TestFigBurstStagedBeatsDirect(t *testing.T) {
	o := testOptions()
	st, err := o.FigBurstSweep()
	if err != nil {
		t.Fatal(err)
	}
	ss, pts := burstSeriesAndPoints(st)
	if len(ss) != 2 || len(pts) != len(o.NodeCounts) {
		t.Fatalf("want 2 series and %d points, got %d/%d", len(o.NodeCounts), len(ss), len(pts))
	}
	for _, pt := range pts {
		if pt.StagedGiBs <= pt.DirectGiBs {
			t.Errorf("%d nodes: staged %.3f GiB/s must beat direct %.3f GiB/s",
				pt.Nodes, pt.StagedGiBs, pt.DirectGiBs)
		}
		if pt.DrainSec <= 0 {
			t.Errorf("%d nodes: drain time must be reported, got %v", pt.Nodes, pt.DrainSec)
		}
		if pt.DrainedBytes != pt.AbsorbedBytes {
			t.Errorf("%d nodes: all absorbed bytes must drain (%d vs %d)",
				pt.Nodes, pt.DrainedBytes, pt.AbsorbedBytes)
		}
	}
	// Some drain work must happen while ranks still run (the compute
	// windows between epochs are what the async drain overlaps).
	last := pts[len(pts)-1]
	if last.OverlapFrac <= 0 {
		t.Errorf("drain must overlap compute at %d nodes, overlap %.2f", last.Nodes, last.OverlapFrac)
	}
	pinned(t, "direct GiB/s at 4 nodes", last.DirectGiBs, "2.2613")
	pinned(t, "staged GiB/s at 4 nodes", last.StagedGiBs, "9.8590")
	pinned(t, "drain busy seconds at 4 nodes", last.DrainSec, "1.5923")
	pinned(t, "drain overlap at 4 nodes", last.OverlapFrac, "0.1885")
}
