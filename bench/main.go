// Command bench is the repository's benchmark: four workloads that stress
// different layers of the recovery engine, end-to-end metrics measured with
// tracing off, and a layer budget measured from the outside in with spans
// recorded around the benchmark's own calls into each layer.  README.md has
// the layer -> metric -> end-to-end map and the reason for every workload.
//
// Usage:
//
//	bench [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1]
//	      [-scale F] [-json FILE] [-trace-out FILE] [-dir DIR] [-spec FILE]
//	bench -compare OLD.json NEW.json [-spec FILE]
//
// With one workload named, the last line of standard output is the result
// object the driver reads (see BENCHMARK.json at the repository root).  The
// exit code is non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	workloadName := flag.String("workload", "all", "workload to run: all, kv-commit, kv-serve, logical-mix or recover-mix")
	seed := flag.Int64("seed", 1, "seed of every input generator")
	seconds := flag.Float64("seconds", 15, "keep starting repetitions until this much timed work has been measured")
	trace := flag.Int("trace", 0, "1 alternates untraced and traced repetitions and reports the per-layer metrics")
	scale := flag.Float64("scale", 1, "multiplies operation counts and preload sizes (the smoke test uses 0.01)")
	jsonOut := flag.String("json", "", "write the full report (environment, per-repetition values, spreads) to this file")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the last traced repetition's spans of each workload as Chrome trace_event JSON; the workload name is inserted before the extension")
	dir := flag.String("dir", "", "directory for the file-backed WALs (default: a fresh temporary directory)")
	specPath := flag.String("spec", "", "path of BENCHMARK.json (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
	doCompare := flag.Bool("compare", false, "compare two -json reports: bench -compare OLD.json NEW.json")
	flag.Parse()

	if *doCompare {
		return compareReports(*specPath, flag.Args())
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}

	var selected []*workloadDef
	for _, w := range workloads {
		if *workloadName == "all" || *workloadName == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", *workloadName)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, minReps: 3, scale: *scale, dir: *dir, trace: *trace != 0}
	if cfg.dir == "" {
		tmp, err := os.MkdirTemp("", "logicallog-bench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		cfg.dir = tmp
	}

	rpt := newReport(cfg)
	fmt.Printf("logicallog bench: %s, %d CPUs, GOMAXPROCS %d, commit %s, seed %d, %gs per workload, scale %g, trace %v\n",
		rpt.GoVersion, rpt.NProc, rpt.GoMaxProcs, rpt.Commit, cfg.seed, cfg.seconds, cfg.scale, cfg.trace)
	failedChecks := 0
	for _, w := range selected {
		wr, spans, err := runWorkload(w, cfg)
		if err != nil {
			return err
		}
		wr.print(os.Stdout)
		failedChecks += wr.Failed
		rpt.Workloads = append(rpt.Workloads, *wr)
		if *traceOut != "" && spans != nil {
			if err := writeTraceFile(tracePath(*traceOut, w.name), spans); err != nil {
				return err
			}
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rpt, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(selected) == 1 {
		line, err := rpt.Workloads[0].resultLine(cfg.trace)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s\n", line)
	}
	if failedChecks > 0 {
		return fmt.Errorf("%d operations or output checks failed", failedChecks)
	}
	return nil
}

func compareReports(specPath string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench -compare OLD.json NEW.json")
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	old, err := readReport(args[0])
	if err != nil {
		return err
	}
	cur, err := readReport(args[1])
	if err != nil {
		return err
	}
	if n := compare(os.Stdout, spec, old, cur); n > 0 {
		return fmt.Errorf("%d regression(s) beyond the bounds in BENCHMARK.json", n)
	}
	return nil
}

// tracePath inserts the workload name before the extension of path.
func tracePath(path, workload string) string {
	for i := len(path) - 1; i >= 0 && path[i] != '/'; i-- {
		if path[i] == '.' {
			return path[:i] + "." + workload + path[i:]
		}
	}
	return path + "." + workload
}

func writeTraceFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
