package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"picmcio/internal/cluster"
	"picmcio/internal/fault"
	"picmcio/internal/jobs"
	"picmcio/internal/xrand"
)

// The event loop's oracle is frozen and test-only:
// testdata/result_digests.json holds SHA-256 digests of full Results the
// pre-index reference loop produced on the streams below (and on
// BenchmarkSchedScale's) at the commit the file names. That loop priced
// every queued shape at every decision point, copied the queue and the
// running set out for every pass, scanned the running set for the next
// completion and knew no veto; Run must reproduce each digest bit for
// bit.

// frozen loads testdata/result_digests.json once. Beside the fields read
// here the file records its provenance (parent commit, generator).
var frozen = sync.OnceValues(func() (f struct {
	// GOARCH the digests were recorded on. Compilers may fuse x*y+z into
	// an FMA on other architectures, which moves low float bits without
	// changing any schedule; the frozen leg only runs where it was recorded.
	GOARCH  string            `json:"goarch"`
	Digests map[string]string `json:"digests"`
}, err error) {
	raw, err := os.ReadFile("testdata/result_digests.json")
	if err == nil {
		err = json.Unmarshal(raw, &f)
	}
	return f, err
})

// checkDigest asserts res against the frozen digest recorded under key.
func checkDigest(tb testing.TB, key string, res *Result) {
	tb.Helper()
	f, err := frozen()
	if err != nil {
		tb.Fatal(err)
	}
	if f.GOARCH != runtime.GOARCH {
		tb.Logf("%s: frozen digests were recorded on %s; not compared on %s (FMA fusion may move low float bits)", key, f.GOARCH, runtime.GOARCH)
		return
	}
	want, ok := f.Digests[key]
	if !ok {
		tb.Fatalf("no frozen digest recorded for %q", key)
	}
	if got := resultDigest(res); got != want {
		tb.Errorf("%s: result digest %s, frozen reference %s", key, got, want)
	}
}

// resultDigest is the SHA-256 of a canonical bit-exact encoding of the
// whole Result: every field in declaration order, floats by their IEEE
// bits, slices and strings length-prefixed. Job.Spec is input, not
// outcome, and is skipped; a field of any other unencodable kind panics,
// so a new Result field cannot silently escape the digest.
func resultDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	var enc func(v reflect.Value)
	enc = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Int:
			word(uint64(v.Int()))
		case reflect.Float64:
			word(math.Float64bits(v.Float()))
		case reflect.Bool:
			if v.Bool() {
				word(1)
			} else {
				word(0)
			}
		case reflect.String:
			word(uint64(v.Len()))
			h.Write([]byte(v.String()))
		case reflect.Slice:
			word(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				enc(v.Index(i))
			}
		case reflect.Struct:
			if v.Type() == reflect.TypeOf(jobs.Spec{}) {
				return
			}
			for i := 0; i < v.NumField(); i++ {
				enc(v.Field(i))
			}
		default:
			panic(fmt.Sprintf("resultDigest: no encoding for %s", v.Type()))
		}
	}
	enc(reflect.ValueOf(*res))
	return hex.EncodeToString(h.Sum(nil))
}

// oracleCase is one configured replay the frozen oracle holds.
type oracleCase struct {
	key      string // digest key prefix; the policy name completes it
	cfg      Config
	stream   []Job
	policies []Policy
}

// checkOracles runs every case × policy through Run and holds the result
// to its frozen digest, returning the results for further assertions.
func checkOracles(t *testing.T, cases []oracleCase) [][]*Result {
	t.Helper()
	out := make([][]*Result, len(cases))
	for ci, c := range cases {
		for _, pol := range c.policies {
			key := c.key + "/" + pol.Name()
			res, err := Run(c.cfg, pol, c.stream)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			checkDigest(t, key, res)
			if len(res.Jobs) != len(c.stream) {
				t.Errorf("%s: %d of %d jobs completed", key, len(res.Jobs), len(c.stream))
			}
			out[ci] = append(out[ci], res)
		}
	}
	return out
}

// streamAtLoad synthesizes about `jobs` submissions from s, calibrated to
// offer `load` times the node-hour capacity of a `nodes`-node partition.
func streamAtLoad(pr *Pricer, m cluster.Machine, s Synth, load float64, nodes, jobs int) ([]Job, error) {
	mean, err := SubmitMeanForLoad(pr, m, s, load, nodes)
	if err != nil {
		return nil, err
	}
	s.SubmitMeanHours = mean
	s.SpanHours = float64(jobs) * mean / float64(s.Tenants*s.Users)
	return Synthesize(m, s)
}

// cleanCases are randomized Synth streams — varied tenant counts,
// offered loads and size-class mixes — on a 64-node partition with the
// realism layer off.
func cleanCases(t testing.TB) []oracleCase {
	m := cluster.Dardel()
	params := []struct {
		tenants, users int
		load           float64
		classes        []SizeClass
	}{
		{tenants: 2, users: 1, load: 0.7, classes: nil},
		{tenants: 5, users: 3, load: 1.4, classes: nil},
		{tenants: 3, users: 2, load: 1.0, classes: DefaultClasses()[:2]},
		{tenants: 4, users: 2, load: 1.2, classes: nil},
	}
	var cases []oracleCase
	for ci, c := range params {
		pr := NewPricer(m, 7, 6)
		s := Synth{Tenants: c.tenants, Users: c.users, Classes: c.classes, Seed: xrand.SeedAt(11, uint64(ci))}
		stream, err := streamAtLoad(pr, m, s, c.load, 64, 180)
		if err != nil {
			t.Fatalf("clean case %d: %v", ci, err)
		}
		cases = append(cases, oracleCase{
			key:      fmt.Sprintf("clean/%d", ci),
			cfg:      Config{Machine: m, Nodes: 64, Seed: 7, Pricer: pr},
			stream:   stream,
			policies: []Policy{FCFS, EASY},
		})
	}
	return cases
}

// realismCases are randomized skewed streams with padded estimates,
// preemption and in-queue node failures all on, under all three policies.
func realismCases(t testing.TB) []oracleCase {
	m := cluster.Dardel()
	params := []struct {
		tenants, users int
		load           float64
		weights        []float64
		survival       fault.Survivability
		mtbf           float64
	}{
		{tenants: 4, users: 2, load: 1.2, weights: []float64{6, 2, 1, 1}, survival: fault.SurviveNVMe, mtbf: 400},
		{tenants: 3, users: 2, load: 1.0, weights: []float64{4, 1, 1}, survival: fault.SurviveNone, mtbf: 250},
	}
	var cases []oracleCase
	for ci, c := range params {
		pr := NewPricer(m, 7, 6)
		pr.EstimateError = 0.3
		s := Synth{Tenants: c.tenants, Users: c.users, Seed: xrand.SeedAt(23, uint64(ci)), TenantWeights: c.weights}
		stream, err := streamAtLoad(pr, m, s, c.load, 64, 150)
		if err != nil {
			t.Fatalf("realism case %d: %v", ci, err)
		}
		cases = append(cases, oracleCase{
			key: fmt.Sprintf("realism/%d", ci),
			cfg: Config{
				Machine: m, Nodes: 64, Seed: 7, Pricer: pr,
				Preempt: PreemptConfig{MaxHeadWaitHours: 8, CheckpointHours: 0.5},
				Faults: FaultConfig{
					MTBFNodeHours:        c.mtbf,
					RepairHours:          4,
					RestartOverheadHours: 0.5,
					Survival:             c.survival,
				},
			},
			stream:   stream,
			policies: []Policy{FCFS, EASY, FairShare},
		})
	}
	return cases
}

// TestLoopOracles holds the event loop to the frozen digests on the
// clean streams. Event ordering, the node ledger, restretch gating and
// wait arithmetic are all on trial: any divergence shows up as a digest
// mismatch.
func TestLoopOracles(t *testing.T) {
	checkOracles(t, cleanCases(t))
}

// TestLoopOraclesRealism extends the oracle over the realism layer:
// kill counters, usage-fairness integrals and repair bookkeeping are part
// of the Result and therefore of the digest.
func TestLoopOraclesRealism(t *testing.T) {
	for ci, results := range checkOracles(t, realismCases(t)) {
		for _, res := range results {
			if res.FailureKills == 0 && res.IdleFailures == 0 {
				t.Errorf("case %d %s: no failures landed — the case exercises nothing", ci, res.Policy)
			}
		}
	}
}

// TestPolicyValueSharedAcrossRuns: policies are stateless values — the
// pass's memory belongs to each Run's engine — so one value driving
// concurrent runs (as the sweep cells and examples/schedtrace do) yields
// exactly the serial results. Run under -race.
func TestPolicyValueSharedAcrossRuns(t *testing.T) {
	c := realismCases(t)[0]
	if err := c.cfg.Pricer.Prewarm(c.stream, 1); err != nil {
		t.Fatal(err) // the shared pricer is read-only once warm
	}
	for _, pol := range []Policy{EASY, FairShare} {
		want, err := Run(c.cfg, pol, c.stream)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*Result, 4)
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = Run(c.cfg, pol, c.stream)
			}()
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("%s: concurrent run %d: %v", pol.Name(), i, errs[i])
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s: concurrent run %d diverged from the serial run", pol.Name(), i)
			}
		}
	}
}
