// Command lllint is the logical-logging lint driver: a multichecker hosting
// the five analyzers in internal/lint, which mechanically enforce the
// recovery-critical invariants documented in DESIGN.md (deterministic redo
// replay, the engine/cache/stable/wal lock order, the force-error
// discipline, atomic-access consistency, and log-record immutability).
//
// Usage:
//
//	go run ./cmd/lllint [-list] [-only name[,name]] [-json] [packages]
//
// With no packages it lints ./...; any finding makes it exit 1.  -json
// emits machine-readable findings (file/line/col/analyzer/message), one
// array on stdout.  Intentional findings are silenced in source with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line above it.  A directive that suppresses
// nothing, names no analyzer of the suite, or names one that never runs on
// its package is itself a finding, whatever -only selects.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"logicallog/internal/lint"
)

// jsonDiagnostic is the machine-readable finding shape (-json); the CI
// problem matcher (.github/lllint-problem-matcher.json) consumes the plain
// text form instead.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	var (
		list    = flag.Bool("list", false, "print the analyzer suite and exit")
		only    = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array instead of text")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: lllint [-list] [-only name[,name]] [-json] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*only, ",") {
			a := lint.AnalyzerByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "lllint: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lllint:", err)
		os.Exit(2)
	}

	diags, err := lint.Lint(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lllint:", err)
		os.Exit(2)
	}

	if *jsonOut {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "lllint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lllint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
