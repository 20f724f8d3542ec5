package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenCases are the ported figure runners and the exact options their
// pre-refactor outputs under testdata/ were captured with. The golden
// files were generated by the hand-rolled (pre-sweep-engine) runners;
// byte identity here is the acceptance proof that the sweep engine
// reproduces them.
var goldenCases = []struct {
	artifact string
	file     string
	opts     Options
}{
	{"figburst", "golden_figburst.txt", Options{Seed: 1, RanksPerNode: 8, NodeCounts: []int{1, 4}, DiagEpochs: 2}},
	{"figcontention", "golden_figcontention.txt", Options{Seed: 1}},
	{"figfault", "golden_figfault.txt", Options{Seed: 1}},
	// figsizing's capture dates from when it joined the pinned set, long
	// after its introduction; it pins the capacity × drain-rate surface.
	{"figsizing", "golden_figsizing.txt", Options{Seed: 1}},
	// figworkload's capture dates from its introduction (it postdates the
	// sweep engine); byte identity pins the workload-interface composition.
	{"figworkload", "golden_figworkload.txt", Options{Seed: 1}},
	// figsched's capture predates every scaling change to the sched event
	// loop (stretched virtual time, incremental contention, admission-time
	// prices, one pass run by the engine); byte identity pins them all to the
	// original per-event-rescan loop's output.
	{"figsched", "golden_figsched.txt", Options{Seed: 1}},
	// The fault campaigns and the fair-share queue: their numbers hang on
	// where each killed run or job restarts, so byte identity pins the
	// restart position.
	{"campfail", "golden_campfail.txt", campaignOpts},
	{"campopt", "golden_campfail_optimal.txt", campaignOpts},
	{"figinterval", "golden_figinterval.txt", campaignOpts},
	{"figfair", "golden_figfair.txt", campaignOpts},
}

// campaignOpts sizes the Monte Carlo failure campaigns for the suite.
var campaignOpts = Options{Seed: 1, CampaignRuns: 1500, CampaignMTBFHours: 500}

// paperGoldens are the paper's own artifacts. Their captures were printed
// by parent 91d8545's `cmd/experiments -run <name> -ranks-per-node 8
// -node-list 1,4 -diag-epochs 2 -nodes 4 -seed 1`, before the launch path
// and the figure loops were consolidated. They have no sweep form, so
// only the serial leg applies.
var paperGoldens = []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "tab2", "lst1"}

// TestGoldenBitIdentical: same Options.Seed ⇒ byte-identical table text,
// serial and at -parallel 4, against the pre-refactor captures.
func TestGoldenBitIdentical(t *testing.T) {
	for _, name := range paperGoldens {
		t.Run(name, func(t *testing.T) {
			file := "golden_" + name + ".txt"
			want, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			a, _ := Lookup(name)
			out, err := a.Run(testOptions(), 4)
			if err != nil {
				t.Fatal(err)
			}
			if out.Text != string(want) {
				t.Fatalf("output diverged from the 91d8545 capture (saved to %s):\n--- got ---\n%s\n--- want ---\n%s",
					writeGot(t, file, out.Text), out.Text, want)
			}
		})
	}
	for _, c := range goldenCases {
		t.Run(strings.TrimSuffix(strings.TrimPrefix(c.file, "golden_"), ".txt"), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			a, ok := Lookup(c.artifact)
			if !ok {
				t.Fatalf("artifact %q missing from catalogue", c.artifact)
			}
			serial, err := a.Run(c.opts, 200)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Text != string(want) {
				got := writeGot(t, c.file, serial.Text)
				t.Fatalf("serial output diverged from pre-refactor golden (diverging output saved to %s):\n--- got ---\n%s\n--- want ---\n%s",
					got, serial.Text, want)
			}
			po := c.opts
			po.Parallel = 4
			parallel, err := a.Run(po, 200)
			if err != nil {
				t.Fatal(err)
			}
			if parallel.Text != string(want) {
				got := writeGot(t, c.file, parallel.Text)
				t.Fatalf("-parallel 4 output diverged from golden (diverging output saved to %s):\n%s", got, parallel.Text)
			}
			// The machine-readable form must be as deterministic as the text.
			sj, err := serial.Table.JSON()
			if err != nil {
				t.Fatal(err)
			}
			pj, err := parallel.Table.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(sj) != string(pj) {
				t.Fatal("JSON diverged between serial and parallel runs")
			}
		})
	}
}

// writeGot saves a diverging golden output next to its capture as
// <name>.got.txt, so CI can upload the byte-level regression as a
// workflow artifact (the golden-diffs step) and it can be inspected —
// or diffed against the committed capture — without a local repro.
func writeGot(t *testing.T, goldenFile, text string) string {
	t.Helper()
	got := filepath.Join("testdata", strings.TrimSuffix(goldenFile, ".txt")+".got.txt")
	if err := os.WriteFile(got, []byte(text), 0o644); err != nil {
		t.Logf("could not save diverging output: %v", err)
	}
	return got
}

// TestGoldenNewArtifactsDeterministic extends the serial-vs-parallel
// guarantee to the artifacts with no capture at these options (the
// invariant is self-consistency).
func TestGoldenNewArtifactsDeterministic(t *testing.T) {
	o := campaignOpts
	for _, name := range []string{"figsizing", "figsched"} {
		t.Run(name, func(t *testing.T) {
			a, ok := Lookup(name)
			if !ok {
				t.Fatalf("artifact %q missing from catalogue", name)
			}
			serial, err := a.Run(o, 200)
			if err != nil {
				t.Fatal(err)
			}
			po := o
			po.Parallel = 4
			parallel, err := a.Run(po, 200)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Text != parallel.Text {
				t.Fatalf("%s diverged between serial and -parallel 4:\n%s\nvs\n%s", name, serial.Text, parallel.Text)
			}
		})
	}
}

// TestCatalog pins the -list contract: every artifact has a name and a
// one-line description, names are unique, and Lookup resolves them.
func TestCatalog(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Catalog() {
		if a.Name == "" || a.Desc == "" || a.Run == nil {
			t.Errorf("catalogue entry incomplete: %+v", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate artifact %q", a.Name)
		}
		seen[a.Name] = true
		if got, ok := Lookup(a.Name); !ok || got.Name != a.Name {
			t.Errorf("Lookup(%q) failed", a.Name)
		}
	}
	for _, want := range []string{"fig2", "figburst", "figcontention", "figfault", "figworkload", "figsizing", "figinterval", "campfail", "campopt", "figsched", "figfair", "tab1", "tab2", "lst1"} {
		if !seen[want] {
			t.Errorf("catalogue missing %q", want)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup invented an artifact")
	}
}
