package sched

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"picmcio/internal/cluster"
)

func TestSynthesizeDeterministicAndOrdered(t *testing.T) {
	m := cluster.Discoverer()
	s := Synth{Tenants: 8, Users: 3, SubmitMeanHours: 5, SpanHours: 24, Seed: 9}
	a, err := Synthesize(m, s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(m, s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical Synth configs produced different streams")
	}
	if len(a) == 0 {
		t.Fatal("empty stream")
	}
	tenants := map[string]bool{}
	for i, j := range a {
		if j.ID != i+1 {
			t.Fatalf("job %d has ID %d, want sequential IDs in submission order", i, j.ID)
		}
		if i > 0 && j.SubmitHours < a[i-1].SubmitHours {
			t.Fatalf("stream not submission-ordered at index %d", i)
		}
		if j.SubmitHours < 0 || j.SubmitHours >= s.SpanHours {
			t.Fatalf("job %d submitted at %v, outside [0,%v)", j.ID, j.SubmitHours, s.SpanHours)
		}
		if j.Spec.Nodes != j.Nodes {
			t.Fatalf("job %d spec/job node mismatch", j.ID)
		}
		tenants[j.Tenant] = true
	}
	if len(tenants) != s.Tenants {
		t.Fatalf("stream spans %d tenants, want %d", len(tenants), s.Tenants)
	}
}

func TestSynthesizeTenantIndependence(t *testing.T) {
	// Adding tenants must not perturb the existing tenants' submissions:
	// each tenant draws from its own SeedAt stream.
	m := cluster.Discoverer()
	base := Synth{Tenants: 4, Users: 2, SubmitMeanHours: 5, SpanHours: 24, Seed: 9}
	wide := base
	wide.Tenants = 8
	a, err := Synthesize(m, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(m, wide)
	if err != nil {
		t.Fatal(err)
	}
	key := func(j Job) [3]interface{} { return [3]interface{}{j.Tenant, j.Class, j.SubmitHours} }
	got := map[[3]interface{}]bool{}
	for _, j := range b {
		got[key(j)] = true
	}
	for _, j := range a {
		if !got[key(j)] {
			t.Fatalf("tenant %s submission at %v vanished when tenants grew 4→8", j.Tenant, j.SubmitHours)
		}
	}
}

func TestSynthesizeErrors(t *testing.T) {
	m := cluster.Discoverer()
	if _, err := Synthesize(m, Synth{}); err == nil {
		t.Fatal("zero SubmitMeanHours accepted")
	}
	if _, err := Synthesize(m, Synth{SubmitMeanHours: 1, Classes: []SizeClass{{Name: "x", Nodes: 1, Weight: -1}}}); err == nil {
		t.Fatal("negative class weight accepted")
	}
	if _, err := Synthesize(m, Synth{SubmitMeanHours: 1, Classes: []SizeClass{{Name: "x", Nodes: 1, Weight: 0}}}); err == nil {
		t.Fatal("all-zero class weights accepted")
	}
}

func TestSynthesizeClassMixCoverage(t *testing.T) {
	m := cluster.Discoverer()
	js, err := Synthesize(m, Synth{Tenants: 8, Users: 4, SubmitMeanHours: 2, SpanHours: 48, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, j := range js {
		count[j.Class]++
	}
	var names []string
	for _, c := range DefaultClasses() {
		names = append(names, c.Name)
		if count[c.Name] == 0 {
			t.Errorf("class %q never drawn over %d jobs", c.Name, len(js))
		}
	}
	sort.Strings(names)
	// The heavy-weight class should dominate the light one.
	if count["narrow"] <= count["wide"] {
		t.Errorf("narrow (w=0.45) drawn %d times vs wide (w=0.10) %d — weights ignored?",
			count["narrow"], count["wide"])
	}
}

func TestTraceRoundTrip(t *testing.T) {
	m := cluster.Dardel()
	js, err := Synthesize(m, Synth{Tenants: 3, Users: 2, SubmitMeanHours: 4, SpanHours: 12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, js); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(js, back) {
		t.Fatal("trace round trip lost information")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	m := cluster.Discoverer()
	cases := map[string]string{
		"empty":         "",
		"bad header":    "jobs go here\n1 t narrow 2 0.5\n",
		"unknown class": "#schedtrace v1\n1 t gigantic 2 0.5\n",
		"malformed":     "#schedtrace v1\nnot a job line at all\n",
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in), m, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Values Sscanf parses happily but no job can have; the error carries
	// the offending line's number.
	for name, jobLine := range map[string]string{
		"NaN submit":     "2 t narrow 2 NaN",
		"+Inf submit":    "2 t narrow 2 Inf",
		"-Inf submit":    "2 t narrow 2 -Inf",
		"zero nodes":     "2 t narrow 0 0.5",
		"negative nodes": "2 t narrow -3 0.5",
	} {
		in := "#schedtrace v1\n# comment\n1 t narrow 2 0.25\n" + jobLine + "\n"
		_, err := ReadTrace(strings.NewReader(in), m, nil)
		if err == nil || !strings.Contains(err.Error(), "line 4") {
			t.Errorf("%s: err = %v, want a rejection naming line 4", name, err)
		}
	}
}

// FuzzReadTrace: arbitrary bytes never panic or hang ReadTrace, an
// accepted trace holds no more jobs than the input has lines, and it
// survives WriteTrace∘ReadTrace unchanged.
func FuzzReadTrace(f *testing.F) {
	m := cluster.Dardel()
	js, err := Synthesize(m, Synth{Tenants: 3, Users: 2, SubmitMeanHours: 4, SpanHours: 12, Seed: 2})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, js); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		js, err := ReadTrace(bytes.NewReader(in), m, nil)
		if err != nil {
			return
		}
		if lines := bytes.Count(in, []byte("\n")) + 1; len(js) >= lines {
			t.Fatalf("%d jobs parsed from %d lines", len(js), lines)
		}
		for _, j := range js {
			if j.Nodes < 1 || math.IsNaN(j.SubmitHours) || math.IsInf(j.SubmitHours, 0) {
				t.Fatalf("accepted impossible job %+v", j)
			}
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, js); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrace(&out, m, nil)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(js, back) {
			t.Fatalf("round trip changed the stream:\n%s", out.Bytes())
		}
	})
}

func TestReadTraceSkipsCommentsAndResizes(t *testing.T) {
	m := cluster.Discoverer()
	in := "#schedtrace v1\n# a comment\n\n1 acme narrow 6 0.25\n"
	js, err := ReadTrace(strings.NewReader(in), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(js) != 1 {
		t.Fatalf("parsed %d jobs, want 1", len(js))
	}
	j := js[0]
	if j.Nodes != 6 || j.Spec.Nodes != 6 {
		t.Fatalf("line node count 6 not applied: job %d spec %d", j.Nodes, j.Spec.Nodes)
	}
	if j.Tenant != "acme" || j.Class != "narrow" || j.SubmitHours != 0.25 {
		t.Fatalf("parsed job %+v", j)
	}
}
