package core_test

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"logicallog/internal/cache"
	. "logicallog/internal/core"
	"logicallog/internal/op"
)

// The metrics golden pins Engine.Metrics().Counters — every key and value —
// on one deterministic workload under each flush strategy, taken once before
// the crash and once after recovery.  With Options.Obs and Options.Flight nil
// the counters are exactly the per-package Stats the engine folds in, so a
// change to how wal, stable and cache report their counters must reproduce
// this file.  Regenerate with -metrics.update only for a deliberate change
// to what is counted.
var updateMetricsGolden = flag.Bool("metrics.update", false, "rewrite testdata/metrics_golden.txt from this build")

const metricsGoldenPath = "testdata/metrics_golden.txt"

// metricsWorkload drives creates, a ring of multi-object logical ops, a
// single-object install, a checkpoint, a delete and a flush of everything,
// then forced work left uninstalled for recovery to redo.
func metricsWorkload(eng *Engine) error {
	ids := []op.ObjectID{"a", "b", "c", "d"}
	for i, x := range ids {
		if err := eng.Execute(op.NewCreate(x, []byte{byte('0' + i), 'v'})); err != nil {
			return err
		}
	}
	if err := eng.Execute(op.NewCreate("tmp", []byte("doomed"))); err != nil {
		return err
	}
	if err := eng.InstallOne(); err != nil {
		return err
	}
	// A ring of A-form ops over a, b, c collapses them into one node, a
	// multi-object flush set.
	for round := 0; round < 2; round++ {
		for i := 0; i < 3; i++ {
			x, y := ids[i], ids[(i+1)%3]
			o := op.NewLogical(op.FuncXor, op.EncodeParams([]byte(y), []byte(x)),
				[]op.ObjectID{x, y}, []op.ObjectID{y})
			if err := eng.Execute(o); err != nil {
				return err
			}
		}
	}
	if err := eng.Checkpoint(); err != nil {
		return err
	}
	if err := eng.Execute(op.NewDelete("tmp")); err != nil {
		return err
	}
	if err := eng.Execute(op.NewLogical(op.FuncCopy, []byte("d"), []op.ObjectID{"a"}, []op.ObjectID{"d"})); err != nil {
		return err
	}
	if err := eng.FlushAll(); err != nil {
		return err
	}
	if err := eng.Execute(op.NewPhysioWrite("d", op.FuncAppend, []byte("!"))); err != nil {
		return err
	}
	if err := eng.Execute(op.NewLogical(op.FuncConcat, op.EncodeParams([]byte("b"), []byte("d")),
		[]op.ObjectID{"b", "d"}, []op.ObjectID{"b"})); err != nil {
		return err
	}
	return eng.Log().Force()
}

// metricsLines runs the workload under strat and renders the counters of
// both snapshots as sorted "run phase key value" lines.
func metricsLines(t *testing.T, strat cache.FlushStrategy) []string {
	t.Helper()
	opts := DefaultOptions()
	opts.Strategy = strat
	opts.RedoWorkers = 1
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := metricsWorkload(eng); err != nil {
		t.Fatal(err)
	}
	var lines []string
	add := func(phase string, counters map[string]int64) {
		for k, v := range counters {
			lines = append(lines, fmt.Sprintf("%s %s %s %d", strat, phase, k, v))
		}
	}
	add("pre-crash", eng.Metrics().Counters)
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	add("recovered", eng.Metrics().Counters)
	sort.Strings(lines)
	return lines
}

func TestMetricsGolden(t *testing.T) {
	var lines []string
	for _, strat := range []cache.FlushStrategy{cache.StrategyIdentityWrite, cache.StrategyFlushTxn, cache.StrategyShadow} {
		lines = append(lines, metricsLines(t, strat)...)
	}
	// Every record type, every batch mode the cache manager uses (it never
	// chooses ModeUnsafe) and every flush-mechanism counter must be reached,
	// or the golden pins less than it claims.
	for _, key := range []string{
		"wal.records.op", "wal.records.install", "wal.records.flush", "wal.records.checkpoint",
		"stable.batches.single", "stable.batches.shadow", "stable.batches.flushtxn",
		"stable.flushtxn_log_writes", "stable.flushtxn_log_bytes", "stable.pointer_swings",
	} {
		reached := false
		for _, l := range lines {
			f := strings.Fields(l)
			reached = reached || (f[2] == key && f[3] != "0")
		}
		if !reached {
			t.Errorf("no run counts %s", key)
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateMetricsGolden {
		if err := os.WriteFile(metricsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(metricsGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -metrics.update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("Engine.Metrics() counters differ from %s:\n%s", metricsGoldenPath, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "-%s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+%s\n", l)
		}
	}
	return b.String()
}
