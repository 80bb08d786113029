package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"text/tabwriter"
)

const reportSchema = "logicallog-bench/v1"

// metricValue is one reported number with the per-repetition values it was
// taken from and their relative spread, so a reader sees the noise beside
// the number.
type metricValue struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Reps    []float64 `json:"reps,omitempty"`
	Spread  float64   `json:"spread"`
	Samples int       `json:"samples,omitempty"`
	Note    string    `json:"note,omitempty"`
}

// workloadReport is one workload's section of the report.
type workloadReport struct {
	Name       string        `json:"name"`
	Why        string        `json:"why"`
	Clients    int           `json:"clients"`
	OpsPerRep  int           `json:"ops_per_rep"`
	Reps       int           `json:"reps"`
	TracedReps int           `json:"traced_reps,omitempty"`
	Attempted  int           `json:"attempted"`
	Failed     int           `json:"failed"`
	FailedFrac float64       `json:"failed_frac"`
	Correct    bool          `json:"correct"`
	EndToEnd   []metricValue `json:"end_to_end"`
	Diagnostic []metricValue `json:"diagnostics"`
	PerLayer   []metricValue `json:"per_layer,omitempty"`
	LayerTable []layerTime   `json:"layer_table,omitempty"`
}

func (w *workloadReport) metric(name string) (metricValue, bool) {
	for _, list := range [][]metricValue{w.EndToEnd, w.PerLayer, w.Diagnostic} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricValue{}, false
}

// report is the JSON document -json writes and -compare reads.
type report struct {
	Schema     string           `json:"schema"`
	GoVersion  string           `json:"go"`
	NProc      int              `json:"nproc"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Commit     string           `json:"commit"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Scale      float64          `json:"scale"`
	Trace      bool             `json:"trace"`
	Workloads  []workloadReport `json:"workloads"`
}

func newReport(cfg runConfig) *report {
	return &report{
		Schema:     reportSchema,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Commit:     buildCommit(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Scale:      cfg.scale,
		Trace:      cfg.trace,
	}
}

// buildCommit returns the revision the go tool stamped into the binary, or
// "unknown" when it was built outside a git checkout.
func buildCommit() string {
	commit, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		commit += "+dirty"
	}
	return commit
}

// perRep maps each repetition through f.
func perRep(reps []*repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// pooledMedian is the median of every sample of every repetition.
func pooledMedian(reps []*repResult, samples func(*repResult) []float64) float64 {
	var all []float64
	for _, r := range reps {
		all = append(all, samples(r)...)
	}
	return median(all)
}

func rates(r *repResult) []float64      { return r.rates }
func recoveries(r *repResult) []float64 { return r.recoveries }

// fold turns repetitions into a workload report.  Rates, restart times and
// latencies are medians over the samples of all repetitions pooled (most
// repetitions give one rate sample; recover-mix gives one per restart);
// set-up time is the median repetition; bytes per operation is total bytes
// over total operations, so it does not depend on how the work fell into
// repetitions.  The per-repetition values beside each number are the
// repetitions' own medians.
func fold(w *workloadDef, cfg runConfig, plain, traced []*repResult) *workloadReport {
	rpt := &workloadReport{
		Name: w.name, Why: w.why, Clients: w.clients,
		OpsPerRep: scaled(w.opsPerRep, cfg.scale, minOpsPerRep),
		Reps:      len(plain), TracedReps: len(traced),
	}
	var pooled []float64
	var bytes, byteOps float64
	for _, r := range append(append([]*repResult(nil), plain...), traced...) {
		rpt.Attempted += r.attempted
		rpt.Failed += r.failed
	}
	for _, r := range plain {
		pooled = append(pooled, r.latencyNS...)
		bytes += float64(r.logBytes)
		byteOps += float64(r.logOps)
	}
	rpt.Correct = rpt.Failed == 0
	if rpt.Attempted > 0 {
		rpt.FailedFrac = float64(rpt.Failed) / float64(rpt.Attempted)
	}
	pooled = sorted(pooled)

	add := func(list *[]metricValue, name, unit string, value float64, reps []float64) *metricValue {
		*list = append(*list, metricValue{Name: name, Unit: unit, Value: value, Reps: reps, Spread: spread(reps)})
		return &(*list)[len(*list)-1]
	}
	unit := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		unit[d.name] = d.unit
	}
	e2e := func(name string, value float64, perRepValue func(*repResult) float64) *metricValue {
		return add(&rpt.EndToEnd, name, unit[name], value, perRep(plain, perRepValue))
	}
	e2e("ops_per_s", pooledMedian(plain, rates), func(r *repResult) float64 { return median(r.rates) })
	e2e("p50_latency_us", median(pooled)/1e3, func(r *repResult) float64 { return median(r.latencyNS) / 1e3 }).Samples = len(pooled)
	e2e("recovery_s", pooledMedian(plain, recoveries), func(r *repResult) float64 { return median(r.recoveries) })
	e2e("log_bytes_per_op", bytes/byteOps, func(r *repResult) float64 { return float64(r.logBytes) / float64(r.logOps) })
	setups := perRep(plain, func(r *repResult) float64 { return r.setup.Seconds() })
	e2e("setup_s", median(setups), func(r *repResult) float64 { return r.setup.Seconds() })

	tail := tailPercentile(len(pooled))
	m := add(&rpt.Diagnostic, "tail_latency_us", "us", percentile(pooled, tail)/1e3, nil)
	m.Samples = len(pooled)
	m.Note = fmt.Sprintf("p%g: the highest percentile with ten samples beyond it", tail)
	heap := perRep(plain, func(r *repResult) float64 { return float64(r.heapInuse) / (1 << 20) })
	add(&rpt.Diagnostic, "heap_inuse_mib", "MiB", median(heap), heap)

	if len(traced) == 0 {
		return rpt
	}
	for _, d := range perLayer {
		if d.name == "obs.trace_overhead_frac" {
			over := add(&rpt.PerLayer, d.name, d.unit, pooledMedian(plain, rates)/pooledMedian(traced, rates)-1, nil)
			over.Note = "untraced ops_per_s / traced ops_per_s - 1"
			continue
		}
		reps := perRep(traced, func(r *repResult) float64 { return r.layers[d.name] })
		add(&rpt.PerLayer, d.name, d.unit, median(reps), reps)
	}
	table := selfTimes(traced[len(traced)-1].spans)
	for _, lt := range table {
		rpt.LayerTable = append(rpt.LayerTable, *lt)
	}
	sort.Slice(rpt.LayerTable, func(i, j int) bool { return rpt.LayerTable[i].SelfUS > rpt.LayerTable[j].SelfUS })
	return rpt
}

// print writes the workload's numbers as a table: every metric by name with
// its unit, the repetition count and the spread between repetitions.
func (w *workloadReport) print(out io.Writer) {
	fmt.Fprintf(out, "\n%s  (%d clients, %d ops/repetition, %d untraced + %d traced repetitions)\n",
		w.Name, w.Clients, w.OpsPerRep, w.Reps, w.TracedReps)
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	row := func(kind string, m metricValue) {
		note := m.Note
		if m.Samples > 0 {
			note = fmt.Sprintf("%d samples %s", m.Samples, note)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%s\t±%.1f%%\t%s\n", kind, m.Name, m.Value, m.Unit, 100*m.Spread, note)
	}
	for _, m := range w.EndToEnd {
		row("end-to-end", m)
	}
	fmt.Fprintf(tw, "  end-to-end\tfailed_frac\t%.6g\tratio\t\t%d failed of %d attempted\n", w.FailedFrac, w.Failed, w.Attempted)
	for _, m := range w.Diagnostic {
		row("diagnostic", m)
	}
	for _, m := range w.PerLayer {
		row("layer", m)
	}
	tw.Flush()
	if len(w.LayerTable) > 0 {
		fmt.Fprintf(out, "  layer table of the last traced repetition (self time = span - children):\n")
		tw = tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
		fmt.Fprintf(tw, "    span\tcount\tself ms\ttotal ms\tself us/span\n")
		for _, lt := range w.LayerTable {
			fmt.Fprintf(tw, "    %s\t%d\t%.2f\t%.2f\t%.2f\n", lt.Name, lt.Count, lt.SelfUS/1e3, lt.TotUS/1e3, lt.SelfUS/float64(lt.Count))
		}
		tw.Flush()
	}
}

// resultLine is the object the driver reads from the last line of standard
// output when one workload is run.
func (w *workloadReport) resultLine(trace bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	list := w.EndToEnd
	if trace {
		list = w.PerLayer
	}
	for _, m := range list {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(map[string]any{
		"correct":   w.Correct,
		"attempted": w.Attempted,
		"failed":    w.Failed,
		"metrics":   metrics,
	})
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from path, or from the working directory or
// its parent when path is empty (the benchmark is run from the repository
// root by run.sh and from bench/ by hand).
func loadSpec(path string) (*benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var data []byte
	var err error
	for _, c := range candidates {
		if data, err = os.ReadFile(c); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// compare prints one row per (workload, end-to-end metric) with both
// medians and spreads and judges each pair against the metric's bound in
// BENCHMARK.json: "unresolved" when either side's spread between
// repetitions exceeds the bound (the noise is wider than what the bound
// could detect), "REGRESSION" when the new median is worse than the old by
// more than the bound, "ok" otherwise.  Any failed operation on the new side
// that the old side did not have is a regression too.  It returns the
// number of regressions.
func compare(out io.Writer, spec *benchSpec, old, cur *report) int {
	regressions := 0
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\told\t±\tnew\t±\tworse by\tbound\tverdict\n")
	for _, ow := range old.Workloads {
		var nw *workloadReport
		for i := range cur.Workloads {
			if cur.Workloads[i].Name == ow.Name {
				nw = &cur.Workloads[i]
			}
		}
		if nw == nil {
			fmt.Fprintf(tw, "%s\t-\t\t\t\t\t\t\tREGRESSION (workload missing)\n", ow.Name)
			regressions++
			continue
		}
		for _, sm := range spec.EndToEnd {
			o, okOld := ow.metric(sm.Name)
			n, okNew := nw.metric(sm.Name)
			if !okOld || !okNew || o.Value == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t\tREGRESSION (metric missing)\n", ow.Name, sm.Name)
				regressions++
				continue
			}
			worse := (n.Value - o.Value) / o.Value
			if sm.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case o.Spread > sm.Bound || n.Spread > sm.Bound:
				verdict = "unresolved"
			case worse > sm.Bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.1f%%\t%.6g\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\n",
				ow.Name, sm.Name, o.Value, 100*o.Spread, n.Value, 100*n.Spread, 100*worse, 100*sm.Bound, verdict)
		}
		verdict := "ok"
		if nw.FailedFrac > ow.FailedFrac {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%.6g\t\t%.6g\t\t\t0%%\t%s\n", ow.Name, ow.FailedFrac, nw.FailedFrac, verdict)
	}
	tw.Flush()
	return regressions
}
