// Command llbench runs the paper-reproduction experiments (E1–E11, E13,
// E14 and the ablations; see DESIGN.md) and prints their tables.
//
// Usage:
//
//	llbench                        # run everything
//	llbench -exp e1,e5             # run a subset
//	llbench -list                  # list experiments
//	llbench -json out.json         # also write the llbench/v1 JSON report
//	llbench -validate-json f.json  # validate a report file and exit
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"logicallog/internal/harness"
	"logicallog/internal/obs"
	"logicallog/internal/workload"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	exps := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	redoWorkers := flag.Int("redo-workers", 0, "goroutines replaying redo chains in recovery-heavy experiments (0 = GOMAXPROCS, 1 = one replaying goroutine)")
	mixes := flag.String("mix", "", "comma-separated scenario mixes for the domain experiment E13 (default: all built-ins)")
	jsonOut := flag.String("json", "", `write the machine-readable llbench/v1 report to this path ("-" = stdout)`)
	validateJSON := flag.String("validate-json", "", "validate a previously written report file and exit")
	metrics := flag.Bool("metrics", false, "print each experiment's metrics snapshot after its table")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars, /debug/pprof, and /metrics on this address")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path at exit")
	runtimeTrace := flag.String("runtime-trace", "", "write a Go runtime execution trace to this path")
	flag.Parse()
	harness.DefaultRedoWorkers = *redoWorkers
	if *mixes != "" {
		for _, name := range strings.Split(*mixes, ",") {
			name = strings.TrimSpace(name)
			if _, err := workload.ParseMix(name); err != nil {
				fmt.Fprintf(os.Stderr, "llbench: %v\n", err)
				os.Exit(2)
			}
			harness.DefaultMixes = append(harness.DefaultMixes, name)
		}
	}

	if *validateJSON != "" {
		f, err := os.Open(*validateJSON)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		rep, err := harness.ReadReport(f)
		if err != nil {
			fatal(err)
		}
		if err := harness.ValidateReport(rep); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: valid %s report (%d experiments)\n", *validateJSON, rep.Schema, len(rep.Experiments))
		return
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return
	}

	prof, err := obs.StartProfiles(*cpuProfile, *memProfile, *runtimeTrace)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "llbench: profiles: %v\n", err)
		}
	}()

	// The report and metrics paths need a registry on every harness engine.
	if *jsonOut != "" || *metrics || *debugAddr != "" {
		harness.DefaultObs = obs.NewRegistry()
	}
	if *debugAddr != "" {
		ln, err := obs.ServeDebug(*debugAddr, harness.DefaultObs.Snapshot)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Printf("debug endpoint on http://%s/debug/pprof/ (metrics at /metrics)\n", ln.Addr())
	}

	var selected []harness.Experiment
	if *exps == "" {
		selected = harness.All()
	} else {
		for _, id := range strings.Split(*exps, ",") {
			e, ok := harness.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "llbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	if *jsonOut != "" {
		runReport(selected, *jsonOut, *metrics)
		return
	}

	for _, e := range selected {
		fmt.Printf("== %s: %s\n", e.ID, e.Name)
		harness.DefaultObs.Reset()
		tbl, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "llbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		tbl.Render(os.Stdout)
		if *metrics {
			printSnapshot(harness.DefaultObs.Snapshot())
		}
	}
}

// runReport runs the experiments through the report collector, renders the
// tables as usual, and writes the JSON artifact.
func runReport(selected []harness.Experiment, path string, metrics bool) {
	rep, err := harness.RunReport(selected)
	if err != nil {
		fatal(err)
	}
	for _, er := range rep.Experiments {
		fmt.Printf("== %s: %s (%.1f ms)\n", er.ID, er.Name, er.WallMS)
		tbl := harness.Table{
			ID: er.ID, Title: er.Table.Title, Paper: er.Table.Paper,
			Columns: er.Table.Columns, Rows: er.Table.Rows, Notes: er.Table.Notes,
		}
		tbl.Render(os.Stdout)
		if metrics {
			printSnapshot(er.Metrics)
		}
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	if err := rep.WriteJSON(out); err != nil {
		fatal(err)
	}
	if path != "-" {
		fmt.Printf("report written to %s (%d experiments)\n", path, len(rep.Experiments))
	}
}

func printSnapshot(s obs.Snapshot) {
	fmt.Println("  -- metrics")
	for _, name := range sortedKeys(s.Counters) {
		fmt.Printf("  %-40s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Printf("  %-40s %d (gauge)\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Printf("  %-40s n=%d min=%d max=%d mean=%.1f\n", name, h.Count, h.Min, h.Max, h.Mean())
	}
	fmt.Println()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "llbench: %v\n", err)
	os.Exit(1)
}
