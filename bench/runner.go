package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
)

// metricDef names one metric and its unit.  The lists below are the same
// lists BENCHMARK.json carries; bench_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees.  Every workload reports every
// one of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_latency_us", "us"},
	{"recovery_s", "s"},
	{"log_bytes_per_op", "B/op"},
	{"setup_s", "s"},
}

// perLayer is measured in traced repetitions only; layer = package name.
var perLayer = []metricDef{
	{"server.self_us", "us"},
	{"server.admission_wait_ns", "ns"},
	{"server.refused", "count"},
	{"core.call_us", "us"},
	{"wal.force_self_us", "us"},
	{"wal.forces", "count"},
	{"wal.forces_coalesced", "count"},
	{"wal.coalesce_ratio", "ratio"},
	{"wal.bytes_appended", "B"},
	{"device.appends", "count"},
	{"device.bytes", "B"},
	{"device.append_us", "us"},
	{"cache.install_us", "us"},
	{"cache.install_stall_frac", "ratio"},
	{"cache.installs", "count"},
	{"cache.identity_writes", "count"},
	{"cache.multi_object_flushes", "count"},
	{"stable.object_writes", "count"},
	{"stable.write_bytes", "B"},
	{"writegraph.nodes_end", "count"},
	{"writegraph.addop_ns", "ns"},
	{"recovery.analysis_s", "s"},
	{"recovery.drain_s", "s"},
	{"recovery.redone", "count"},
	{"recovery.skipped_installed", "count"},
	{"recovery.skipped_unexposed", "count"},
	{"recovery.redo_ops_per_s", "1/s"},
	{"obs.trace_overhead_frac", "ratio"},
}

// workloadDef is one workload: a fixed operation count per repetition on
// fresh state, so that a repetition costs the same whenever it runs.
type workloadDef struct {
	name    string
	why     string
	clients int
	// opsPerRep is the operation count of one repetition at scale 1.
	opsPerRep int
	// run performs one repetition: set-up, timed phase, output check.
	run func(env *repEnv) (*repResult, error)
}

// repEnv is what one repetition is given.
type repEnv struct {
	seed  int64   // this repetition's generator seed
	ops   int     // the workload's operation count, scaled
	scale float64 // multiplies operation counts and preload sizes
	dir   string  // where file-backed WALs go
	tr    *tracer // nil in untraced repetitions
}

// scaled scales a count, never below min.
func scaled(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		v = min
	}
	return v
}

// repResult is what one repetition measured.
type repResult struct {
	setup      time.Duration
	timed      time.Duration // wall time of the timed phase
	ops        int           // operations completed in the timed phase
	rates      []float64     // operations per second: one sample per timed phase
	attempted  int           // operations attempted plus outputs checked
	failed     int           // of those, how many failed
	latencyNS  []float64     // one sample per acknowledged operation
	logBytes   int64         // WAL bytes appended during the timed phase
	logOps     int           // the operations those bytes are charged to
	recoveries []float64     // seconds: full restarts on this repetition's state
	heapInuse  uint64        // heap in use after a GC, state still live

	layers map[string]float64 // traced repetitions only
	spans  []span             // traced repetitions only
}

// fail records n failed operations or output checks and says why once.
func (r *repResult) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	fmt.Printf("  FAILED (%d): %s\n", n, fmt.Sprintf(format, args...))
}

// runClients starts n goroutines, releases them together and returns the
// wall time until the last one finishes.  prepare runs on each goroutine
// before the release (lane registration); work runs after it.
func runClients(n int, prepare func(c int), work func(c int)) time.Duration {
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < n; c++ {
		ready.Add(1)
		done.Add(1)
		go func(c int) {
			defer done.Done()
			prepare(c)
			ready.Done()
			<-start
			work(c)
		}(c)
	}
	ready.Wait()
	t0 := time.Now()
	close(start)
	done.Wait()
	return time.Since(t0)
}

// heapAfterGC returns the heap in use after a collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// minOpsPerRep keeps a scaled-down repetition large enough to reach every
// code path: both clients, one install batch.
const minOpsPerRep = 64

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64 // keep starting repetitions until this much timed work is done
	minReps int     // but run at least this many
	scale   float64
	dir     string
	trace   bool
}

// runWorkload repeats w on fresh state until cfg.seconds of timed work have
// been measured (and at least cfg.minReps repetitions), then folds the
// repetitions into a report.  Repetition r draws its inputs from seed
// cfg.seed*1000+r, so one seed always gives the same inputs.  With
// cfg.trace every repetition runs twice on the same inputs, untraced then
// traced, so the two sides of the tracing-overhead ratio see the same
// machine state.  It also returns the spans of the last traced repetition.
func runWorkload(w *workloadDef, cfg runConfig) (*workloadReport, []span, error) {
	var plain, traced []*repResult
	var measured time.Duration
	for rep := 0; ; rep++ {
		tracers := []*tracer{nil}
		if cfg.trace {
			tracers = append(tracers, newTracer())
		}
		for _, tr := range tracers {
			env := &repEnv{
				seed:  cfg.seed*1000 + int64(rep),
				ops:   scaled(w.opsPerRep, cfg.scale, minOpsPerRep),
				scale: cfg.scale, dir: cfg.dir, tr: tr,
			}
			// Start from a collected heap, so that the previous
			// repetition's garbage is not collected on this one's time.
			runtime.GC()
			res, err := w.run(env)
			if err == nil && tr != nil {
				err = checkSpans(res.spans)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("%s repetition %d: %w", w.name, rep, err)
			}
			if len(res.rates) == 0 {
				res.rates = []float64{float64(res.ops) / res.timed.Seconds()}
			}
			measured += res.timed
			if tr != nil {
				traced = append(traced, res)
			} else {
				plain = append(plain, res)
			}
		}
		if rep+1 >= cfg.minReps && measured.Seconds() >= cfg.seconds {
			break
		}
	}
	var spans []span
	if len(traced) > 0 {
		spans = traced[len(traced)-1].spans
	}
	return fold(w, cfg, plain, traced), spans, nil
}
