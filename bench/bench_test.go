package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at 1/100 size with tracing on and checks
// that the benchmark and BENCHMARK.json describe the same thing.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	cfg := runConfig{seed: 1, seconds: 0, minReps: 1, scale: 0.01, dir: t.TempDir(), trace: true}
	rpt := newReport(cfg)
	for i, w := range workloads {
		if sw := spec.Workloads[i]; sw.Name != w.name || sw.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, sw.Name, sw.Why, w.name, w.why)
		}
		wr, spans, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted < 1 {
			t.Errorf("%s: correct=%v, %d failed of %d attempted", w.name, wr.Correct, wr.Failed, wr.Attempted)
		}
		if wr.Reps != 1 || wr.TracedReps != 1 {
			t.Errorf("%s: %d untraced and %d traced repetitions, want 1 and 1", w.name, wr.Reps, wr.TracedReps)
		}
		checkMetrics(t, w.name, "end_to_end", spec.EndToEnd, wr.EndToEnd, true)
		checkMetrics(t, w.name, "per_layer", spec.PerLayer, wr.PerLayer, false)
		if len(spans) == 0 {
			t.Errorf("%s: the traced repetition recorded no spans", w.name)
		}
		// runWorkload has already run checkSpans on every traced repetition.
		var trace bytes.Buffer
		if err := writeChromeTrace(&trace, spans); err != nil || !json.Valid(trace.Bytes()) {
			t.Errorf("%s: span file is not valid JSON (%v)", w.name, err)
		}
		for _, traced := range []bool{false, true} {
			checkResultLine(t, wr, traced, spec)
		}
		rpt.Workloads = append(rpt.Workloads, *wr)
	}

	// A report compared with itself has no regression, and survives the
	// round trip through its JSON form.
	data, err := json.Marshal(rpt)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.GoVersion == "" || back.NProc < 1 || back.GoMaxProcs < 1 || back.Commit == "" || back.Seed != 1 {
		t.Errorf("report environment incomplete: %+v", back)
	}
	if n := compare(io.Discard, spec, rpt, &back); n != 0 {
		t.Errorf("a report compared with itself shows %d regressions", n)
	}
	// Halve every rate and double every cost, leave no noise: each gated
	// pair must now be a regression.
	worse := back
	worse.Workloads = nil
	for _, w := range back.Workloads {
		w.EndToEnd = append([]metricValue(nil), w.EndToEnd...)
		for i := range w.EndToEnd {
			w.EndToEnd[i].Spread = 0
			if w.EndToEnd[i].Name == "ops_per_s" {
				w.EndToEnd[i].Value /= 2
			} else {
				w.EndToEnd[i].Value *= 2
			}
		}
		worse.Workloads = append(worse.Workloads, w)
	}
	quiet := *rpt
	quiet.Workloads = nil
	for _, w := range rpt.Workloads {
		w.EndToEnd = append([]metricValue(nil), w.EndToEnd...)
		for i := range w.EndToEnd {
			w.EndToEnd[i].Spread = 0
		}
		quiet.Workloads = append(quiet.Workloads, w)
	}
	if n, want := compare(io.Discard, spec, &quiet, &worse), len(workloads)*len(spec.EndToEnd); n != want {
		t.Errorf("a report twice as bad shows %d regressions, want %d", n, want)
	}
}

func checkMetrics(t *testing.T, workload, section string, want []specMetric, got []metricValue, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d %s metrics reported, BENCHMARK.json lists %d", workload, len(got), section, len(want))
	}
	byName := make(map[string]metricValue)
	for _, m := range got {
		byName[m.Name] = m
	}
	for _, sm := range want {
		m, ok := byName[sm.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s metric %s missing from the output", workload, section, sm.Name)
		case !metricName.MatchString(m.Name):
			t.Errorf("%s: metric name %q is not a legal name", workload, m.Name)
		case m.Unit == "" || m.Unit != sm.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, m.Name, m.Unit, sm.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", workload, m.Name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, m.Name, m.Value)
		}
	}
}

func checkResultLine(t *testing.T, wr *workloadReport, traced bool, spec *benchSpec) {
	t.Helper()
	line, err := wr.resultLine(traced)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(line, &obj); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := obj[k]; !ok {
			t.Errorf("%s: result line lacks %q", wr.Name, k)
		}
	}
	if len(obj) != 4 {
		t.Errorf("%s: result line has %d keys, want 4", wr.Name, len(obj))
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	if len(metrics) != len(want) {
		t.Errorf("%s: result line (trace %v) has %d metrics, want %d", wr.Name, traced, len(metrics), len(want))
	}
	for _, sm := range want {
		if m, ok := metrics[sm.Name]; !ok || m.Value == nil || m.Unit != sm.Unit {
			t.Errorf("%s: result line (trace %v) metric %s missing or malformed", wr.Name, traced, sm.Name)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// which is what the driver judges spreads with.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Errorf("spread = %v, want 1", s)
	}
}

// TestCheckSpans makes sure the well-formedness check can fail.
func TestCheckSpans(t *testing.T) {
	ok := []span{{ID: 1, Start: 0, End: 10}, {ID: 2, Parent: 1, Start: 2, End: 8}}
	if err := checkSpans(ok); err != nil {
		t.Errorf("well-formed spans rejected: %v", err)
	}
	for name, bad := range map[string][]span{
		"orphan":  {{ID: 2, Parent: 1, Start: 2, End: 8}},
		"outside": {{ID: 1, Start: 0, End: 10}, {ID: 2, Parent: 1, Start: 2, End: 12}},
		"open":    {{ID: 1, Start: 5, End: 0}},
		"lost":    {{ID: 1, Start: 0, End: 10, detached: true, tag: "get k"}},
	} {
		if checkSpans(bad) == nil {
			t.Errorf("%s: ill-formed spans accepted", name)
		}
	}
}
