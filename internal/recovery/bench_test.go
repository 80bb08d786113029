package recovery_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
	"logicallog/internal/workload"
	"logicallog/internal/writegraph"
)

// BenchmarkRedo times full redo of a log nothing has been installed from:
// 512 independent chains of 20 physiological FuncAppend writes each
// (10 240 ops), appended round-robin so the chains interleave in log order
// the way concurrent writers leave them.  The store is in memory and reads
// at memory speed, so the benchmark measures the redo step's CPU and
// allocations only.  Every run must redo every op.  Run with -benchmem;
// redoops/s is the headline.
func BenchmarkRedo(b *testing.B) {
	const (
		chains   = 512
		perChain = 20
		valSize  = 256
	)
	log, err := wal.New(wal.NewMemDevice())
	if err != nil {
		b.Fatal(err)
	}
	snap := make(map[op.ObjectID]stable.Versioned, chains)
	val := make([]byte, valSize)
	for j := 0; j < chains; j++ {
		snap[op.ObjectID(fmt.Sprintf("chain%03d", j))] = stable.Versioned{Val: val}
	}
	for i := 0; i < perChain; i++ {
		for j := 0; j < chains; j++ {
			x := op.ObjectID(fmt.Sprintf("chain%03d", j))
			if _, err := log.AppendOp(op.NewPhysioWrite(x, op.FuncAppend, []byte{byte(i), byte(j)})); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := log.Force(); err != nil {
		b.Fatal(err)
	}
	store := stable.NewStore()
	store.Restore(snap) // redo never writes the store, so one instance serves every run
	opts := recovery.Options{
		Test: recovery.TestRSI,
		Cache: cache.Config{
			Policy:      writegraph.PolicyRW,
			Strategy:    cache.StrategyIdentityWrite,
			LogInstalls: true,
			Registry:    op.NewRegistry(),
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := recovery.Recover(log, store, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Redone != chains*perChain {
			b.Fatalf("redid %d ops, want %d", res.Redone, chains*perChain)
		}
	}
	b.ReportMetric(float64(chains*perChain)*float64(b.N)/b.Elapsed().Seconds(), "redoops/s")
}

// BenchmarkRecoverInstalledLog times a restart shaped like the kv-commit
// workload's: a file WAL of 8 192 physical writes over 1 024 keys, each
// forced and installed before the next, so the log holds one operation and
// one installation record per write and redo has nothing to replay.  Each
// iteration crashes the log and recovers it, so the prologue (device read,
// torn-tail walk, decode, analysis) is the whole cost.  Run with -benchmem.
func BenchmarkRecoverInstalledLog(b *testing.B) {
	const (
		writes  = 8192
		keys    = 1024
		valSize = 128
	)
	dev, err := wal.OpenFileDevice(filepath.Join(b.TempDir(), "wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer dev.Close()
	log, err := wal.New(dev)
	if err != nil {
		b.Fatal(err)
	}
	store := stable.NewStore()
	cfg := cache.Config{
		Policy:      writegraph.PolicyRW,
		Strategy:    cache.StrategyIdentityWrite,
		LogInstalls: true,
		Registry:    op.NewRegistry(),
	}
	mgr, err := cache.NewManager(cfg, log, store)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		val := make([]byte, valSize)
		val[0], val[1] = byte(i), byte(i>>8)
		if err := mgr.Execute(op.NewPhysicalWrite(op.ObjectID(fmt.Sprintf("key%04d", i%keys)), val)); err != nil {
			b.Fatal(err)
		}
		if err := log.Force(); err != nil {
			b.Fatal(err)
		}
		if _, err := mgr.InstallMinimal(); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Force(); err != nil { // the last installation record
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.Crash()
		res, err := recovery.Recover(log, store, recovery.Options{Test: recovery.TestRSI, Cache: cfg})
		if err != nil {
			b.Fatal(err)
		}
		if res.AnalyzedRecords != 2*writes || res.Redone != 0 {
			b.Fatalf("analyzed %d records and redid %d ops, want %d and 0", res.AnalyzedRecords, res.Redone, 2*writes)
		}
	}
}

// BenchmarkRecoverLogicalMix times one restart shaped like the recover-mix
// workload's: the logical mix's bootstrap installed and checkpointed, then
// 8 000 uninstalled steps of the same workload.Spec (multi-object logical
// operations, physiological writes, deletes) and a force, on a memory WAL.
// Each iteration recovers a fresh copy of that image, so the prologue, the
// value replay and the write-graph rebuild are the whole cost; the copy is
// not timed.  Run with -benchmem.
func BenchmarkRecoverLogicalMix(b *testing.B) {
	const steps = 8000
	g, err := workload.NewGenerator(workload.Spec{Seed: 1, Objects: 256, ObjectSize: 4096,
		LogicalAPct: 30, LogicalBPct: 30, PhysioPct: 20, DeletePct: 2})
	if err != nil {
		b.Fatal(err)
	}
	dev := wal.NewMemDevice()
	opts := core.DefaultOptions()
	opts.LogDevice = dev
	eng, err := core.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range g.Bootstrap() {
		if err := eng.Execute(o); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.FlushAll(); err != nil {
		b.Fatal(err)
	}
	if err := eng.CheckpointOnly(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		if err := eng.Execute(g.Next()); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Log().Force(); err != nil {
		b.Fatal(err)
	}
	image, err := dev.ReadAll()
	if err != nil {
		b.Fatal(err)
	}
	snap := eng.Store().Snapshot()
	ropts := recovery.Options{Test: opts.RedoTest, Cache: opts.CacheConfig()}
	ropts.Cache.Registry = eng.Registry()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev := wal.NewMemDevice()
		if err := dev.Append(image); err != nil {
			b.Fatal(err)
		}
		log, err := wal.New(dev)
		if err != nil {
			b.Fatal(err)
		}
		store := stable.NewStore()
		store.Restore(snap)
		b.StartTimer()
		res, err := recovery.Recover(log, store, ropts)
		if err != nil {
			b.Fatal(err)
		}
		if res.ScannedOps != steps || res.Redone == 0 {
			b.Fatalf("scanned %d ops and redid %d, want %d scanned", res.ScannedOps, res.Redone, steps)
		}
	}
}
