// Command llbench runs the paper-reproduction experiments (E1–E11, E13,
// E14 and the ablations; see DESIGN.md) and prints their tables.
//
// Usage:
//
//	llbench                        # run everything
//	llbench -exp e1,e5             # run a subset
//	llbench -list                  # list experiments
//
// It exits non-zero when an experiment fails: a recovered state diverges
// from its oracle, or a claim the experiment checks does not hold.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"logicallog/internal/harness"
	"logicallog/internal/obs"
	"logicallog/internal/workload"
)

func main() { os.Exit(run()) }

// run is the whole command; it returns the exit status so that its
// deferred profile flush runs before the process exits.
func run() int {
	list := flag.Bool("list", false, "list experiments and exit")
	exps := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	mixes := flag.String("mix", "", "comma-separated scenario mixes for the domain experiment E13 (default: all built-ins)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path at exit")
	runtimeTrace := flag.String("runtime-trace", "", "write a Go runtime execution trace to this path")
	flag.Parse()
	if *mixes != "" {
		for _, name := range strings.Split(*mixes, ",") {
			name = strings.TrimSpace(name)
			if _, err := workload.ParseMix(name); err != nil {
				fmt.Fprintf(os.Stderr, "llbench: %v\n", err)
				return 2
			}
			harness.DefaultMixes = append(harness.DefaultMixes, name)
		}
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return 0
	}

	prof, err := obs.StartProfiles(*cpuProfile, *memProfile, *runtimeTrace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "llbench: %v\n", err)
		return 1
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "llbench: profiles: %v\n", err)
		}
	}()

	var selected []harness.Experiment
	if *exps == "" {
		selected = harness.All()
	} else {
		for _, id := range strings.Split(*exps, ",") {
			e, ok := harness.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "llbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		fmt.Printf("== %s: %s\n", e.ID, e.Name)
		tbl, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "llbench: %s: %v\n", e.ID, err)
			return 1
		}
		tbl.Render(os.Stdout)
	}
	return 0
}
