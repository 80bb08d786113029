// Driver-equivalence tests: every crash/recover scenario must yield
// bit-identical recovered state and Result counters however the chain
// scheduler is driven — at every worker count, with demand calls racing the
// background workers, and from backup.MediaRecover's own prologue.  The test
// lives in an external package so it can drive full engine workloads (core +
// sim) against recovery directly.
package recovery_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"logicallog/internal/backup"
	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/sim"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
	"logicallog/internal/writegraph"
)

// crashImage is a deep copy of the durable state a crash leaves behind: the
// forced log bytes and the stable store contents.
type crashImage struct {
	logBytes []byte
	snap     map[op.ObjectID]stable.Versioned
}

// capture runs the scenario's workload against a fresh engine, crashes it,
// and returns the durable image plus the object universe in play.
func capture(t *testing.T, opts core.Options, sc sim.Scenario) (crashImage, []op.ObjectID) {
	t.Helper()
	dev := wal.NewMemDevice()
	opts.LogDevice = dev
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.DriveWorkload(eng, sc); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	logBytes, err := dev.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	img := crashImage{logBytes: logBytes, snap: eng.Store().Snapshot()}
	universe := make([]op.ObjectID, sc.Objects)
	for i := range universe {
		universe[i] = op.ObjectID(fmt.Sprintf("obj%02d", i))
	}
	return img, universe
}

// counters is the comparable projection of recovery.Result.
type counters struct {
	CheckpointLSN, RedoStart                           op.SI
	Analyzed, Scanned                                  int
	Redone, SkippedInstalled, SkippedUnexposed, Voided int
	Repaired                                           bool
}

// recovered is everything a recovery run is held to: the counters, the
// post-recovery stable snapshot, and each universe object's recovered
// (cached) value ("" marks absent).
type recovered struct {
	c    counters
	snap map[op.ObjectID]stable.Versioned
	vals map[op.ObjectID]string
}

func countersOf(res *recovery.Result) counters {
	return counters{
		CheckpointLSN:    res.CheckpointLSN,
		RedoStart:        res.RedoStart,
		Analyzed:         res.AnalyzedRecords,
		Scanned:          res.ScannedOps,
		Redone:           res.Redone,
		SkippedInstalled: res.SkippedInstalled,
		SkippedUnexposed: res.SkippedUnexposed,
		Voided:           res.Voided,
		Repaired:         res.PendingFlushTxnRepaired,
	}
}

func collect(t *testing.T, res *recovery.Result, store *stable.Store, universe []op.ObjectID) recovered {
	t.Helper()
	r := recovered{
		c:    countersOf(res),
		snap: store.Snapshot(),
		vals: make(map[op.ObjectID]string, len(universe)),
	}
	for _, x := range universe {
		v, err := res.Manager.Get(x)
		switch {
		case err == nil:
			r.vals[x] = string(v)
		case errors.Is(err, cache.ErrNotFound):
			r.vals[x] = ""
		default:
			t.Fatalf("Get(%s): %v", x, err)
		}
	}
	return r
}

// requireSame holds got to base on every compared dimension.
func requireSame(t *testing.T, label string, got, base recovered) {
	t.Helper()
	if got.c != base.c {
		t.Errorf("%s: counters diverged:\n got %+v\nwant %+v", label, got.c, base.c)
	}
	if !sameSnap(got.snap, base.snap) {
		t.Errorf("%s: stable snapshot diverged", label)
	}
	for x, want := range base.vals {
		if got.vals[x] != want {
			t.Errorf("%s: object %s diverged: got %q want %q", label, x, got.vals[x], want)
		}
	}
}

// recoverImage recovers an independent copy of the crash image under opts.
// With demandSeed != 0 it goes through StartOnDemand and races random
// RequireRead/RequireOp/RequireRange calls against the background workers
// before Wait.
func recoverImage(t *testing.T, img crashImage, opts recovery.Options, universe []op.ObjectID, demandSeed int64) recovered {
	t.Helper()
	workers := opts.RedoWorkers
	dev := wal.NewMemDevice()
	if err := dev.Append(img.logBytes); err != nil {
		t.Fatal(err)
	}
	log, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	store := stable.NewStore()
	store.Restore(img.snap)
	if demandSeed == 0 {
		res, err := recovery.Recover(log, store, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return collect(t, res, store, universe)
	}
	od, err := recovery.StartOnDemand(log, store, opts)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var wg sync.WaitGroup
	for g := int64(0); g < 3; g++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			pick := func() op.ObjectID { return universe[rng.Intn(len(universe))] }
			for i := 0; i < 8; i++ {
				var err error
				switch rng.Intn(3) {
				case 0:
					err = od.RequireRead(pick(), pick())
				case 1:
					err = od.RequireOp(&op.Operation{ReadSet: []op.ObjectID{pick()}, WriteSet: []op.ObjectID{pick()}})
				default:
					lo, hi := pick(), pick()
					if hi < lo {
						lo, hi = hi, lo
					}
					err = od.RequireRange(lo, hi)
				}
				if err != nil {
					t.Errorf("workers=%d: demand: %v", workers, err)
				}
			}
		}(rand.New(rand.NewSource(demandSeed + g)))
	}
	wg.Wait()
	res, err := od.Wait()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return collect(t, res, store, universe)
}

func sameSnap(a, b map[op.ObjectID]stable.Versioned) bool {
	if len(a) != len(b) {
		return false
	}
	for x, av := range a {
		bv, ok := b[x]
		if !ok || av.VSI != bv.VSI || !bytes.Equal(av.Val, bv.Val) {
			return false
		}
	}
	return true
}

// parallelConfigs mirrors the sim test matrix: every REDO test × flush
// strategy combination the engine supports.
func parallelConfigs() map[string]core.Options {
	return map[string]core.Options{
		"rW/identity/rSI": {
			Policy: writegraph.PolicyRW, Strategy: cache.StrategyIdentityWrite,
			RedoTest: recovery.TestRSI, LogInstalls: true,
		},
		"rW/shadow/rSI": {
			Policy: writegraph.PolicyRW, Strategy: cache.StrategyShadow,
			RedoTest: recovery.TestRSI, LogInstalls: true,
		},
		"rW/flushtxn/vSI": {
			Policy: writegraph.PolicyRW, Strategy: cache.StrategyFlushTxn,
			RedoTest: recovery.TestVSI, LogInstalls: true,
		},
		"W/shadow/vSI": {
			Policy: writegraph.PolicyW, Strategy: cache.StrategyShadow,
			RedoTest: recovery.TestVSI, LogInstalls: true,
		},
		"rW/identity/redo-all": {
			Policy: writegraph.PolicyRW, Strategy: cache.StrategyIdentityWrite,
			RedoTest: recovery.TestRedoAll, LogInstalls: true,
		},
	}
}

var workerCounts = []int{1, 2, 4, 8}

// checkScenario recovers one crash image every way the scheduler can be
// driven — Recover at every worker count, StartOnDemand with racing demand
// at every worker count, and Recover with a metrics registry, span tracer
// and flight recorder attached — and requires identical counters, stable
// snapshots, and recovered object values against the workers=1 Recover.
// The instrumented run's decision counters must also equal the Result's
// tallies, and its recorder and tracer must have seen the run.
func checkScenario(t *testing.T, opts core.Options, sc sim.Scenario) {
	t.Helper()
	img, universe := capture(t, opts, sc)
	cfg := cache.Config{
		Policy:      opts.Policy,
		Strategy:    opts.Strategy,
		LogInstalls: opts.LogInstalls,
		Registry:    op.NewRegistry(),
	}
	ropts := func(workers int) recovery.Options {
		return recovery.Options{Test: opts.RedoTest, Cache: cfg, RedoWorkers: workers}
	}
	base := recoverImage(t, img, ropts(workerCounts[0]), universe, 0)
	for _, w := range workerCounts {
		if w != workerCounts[0] {
			got := recoverImage(t, img, ropts(w), universe, 0)
			requireSame(t, fmt.Sprintf("seed %d workers=%d", sc.Seed, w), got, base)
		}
		got := recoverImage(t, img, ropts(w), universe, sc.Seed*131+int64(w))
		requireSame(t, fmt.Sprintf("seed %d workers=%d demand-interleaved", sc.Seed, w), got, base)
	}

	reg, tracer := obs.NewRegistry(), obs.NewTracer()
	fl := flight.NewRecorder(flight.DefaultRingSize)
	inst := ropts(workerCounts[len(workerCounts)-1])
	inst.Cache.Obs, inst.Tracer, inst.Flight = reg, tracer, fl
	label := fmt.Sprintf("seed %d instrumented", sc.Seed)
	requireSame(t, label, recoverImage(t, img, inst, universe, 0), base)
	c := reg.Snapshot().Counters
	if c["recovery.decide.redo"] != int64(base.c.Redone) ||
		c["recovery.decide.skip_installed"] != int64(base.c.SkippedInstalled) ||
		c["recovery.decide.skip_unexposed"] != int64(base.c.SkippedUnexposed) ||
		c["recovery.decide.voided"] != int64(base.c.Voided) {
		t.Errorf("%s: decide counters %v disagree with %+v", label, c, base.c)
	}
	if events, _, _ := fl.Counters(); base.c.Scanned > 0 && (events == 0 || len(tracer.Events()) == 0) {
		t.Errorf("%s: %d flight events, %d trace events", label, events, len(tracer.Events()))
	}
}

// TestParallelRedoMatrix runs the full configuration matrix over randomized
// scenarios at worker counts {1, 2, 4, 8}, plain and demand-interleaved.
func TestParallelRedoMatrix(t *testing.T) {
	for name, opts := range parallelConfigs() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				checkScenario(t, opts, sim.DefaultScenario(seed))
			}
		})
	}
}

// TestParallelRedoLogOnly recovers a log-only history (nothing installed or
// checkpointed before the crash) — the longest possible redo scan.
func TestParallelRedoLogOnly(t *testing.T) {
	opts := core.DefaultOptions()
	for seed := int64(30); seed < 36; seed++ {
		sc := sim.DefaultScenario(seed)
		sc.InstallEvery = 0
		sc.CheckpointEvery = 0
		sc.ForceEvery = 2
		sc.Steps = 150
		checkScenario(t, opts, sc)
	}
}

// TestParallelRedoHeavyDelete stresses terminated-object voiding under
// concurrency.
func TestParallelRedoHeavyDelete(t *testing.T) {
	opts := core.DefaultOptions()
	for seed := int64(60); seed < 66; seed++ {
		sc := sim.DefaultScenario(seed)
		sc.DeletePercent = 30
		sc.Steps = 120
		checkScenario(t, opts, sc)
	}
}

// TestParallelRedoWideUniverse uses many objects so the stream splits into
// many genuinely independent chains.
func TestParallelRedoWideUniverse(t *testing.T) {
	opts := core.DefaultOptions()
	for seed := int64(90); seed < 94; seed++ {
		sc := sim.DefaultScenario(seed)
		sc.Objects = 48
		sc.Steps = 300
		checkScenario(t, opts, sc)
	}
}

// TestMediaRecoverDriverEquivalence is the matrix's media-recovery row: a
// backup taken mid-workload, the stable store lost, and backup.MediaRecover
// run at every worker count must agree with its workers=1 run — it hands its
// own prologue's state to the same scheduler.
func TestMediaRecoverDriverEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		eng, err := core.New(core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sc := sim.DefaultScenario(seed)
		sc.Objects = 12
		sc.Steps = 160
		var b *backup.Backup
		sc.StepHook = func(step int) error {
			if step != 50 {
				return nil
			}
			var err error
			if b, err = backup.Take(eng, nil); err == nil {
				b.RegisterRetention(eng.Log())
			}
			return err
		}
		if err := sim.DriveWorkload(eng, sc); err != nil {
			t.Fatal(err)
		}
		if err := eng.Log().Force(); err != nil {
			t.Fatal(err)
		}
		eng.Crash()
		universe := make([]op.ObjectID, sc.Objects)
		for i := range universe {
			universe[i] = op.ObjectID(fmt.Sprintf("obj%02d", i))
		}
		var base recovered
		for _, w := range workerCounts {
			eng.Store().Restore(nil) // the media failure
			res, err := backup.MediaRecover(eng, b, recovery.Options{
				Cache: cache.Config{
					Policy: writegraph.PolicyRW, Strategy: cache.StrategyIdentityWrite,
					LogInstalls: true, Registry: eng.Registry(),
				},
				RedoWorkers: w,
			})
			if err != nil {
				t.Fatalf("seed %d workers=%d: %v", seed, w, err)
			}
			if res.Redone == 0 {
				t.Fatalf("seed %d: media recovery redid nothing; the row is vacuous", seed)
			}
			got := collect(t, res, eng.Store(), universe)
			if w == workerCounts[0] {
				base = got
				continue
			}
			requireSame(t, fmt.Sprintf("seed %d media workers=%d", seed, w), got, base)
		}
	}
}
