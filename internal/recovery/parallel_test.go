// Driver-equivalence tests: every crash/recover scenario must yield
// bit-identical recovered state and Result counters however the chain
// scheduler is driven — serially by Recover, with 1, 2 or 4 goroutines'
// demand calls racing the background replayer and a Wait caller, and from
// backup.MediaRecover's own prologue.  The test lives in an external package
// so it can drive full engine workloads (core + sim) against recovery
// directly.
package recovery_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
// post-recovery stable snapshot, each universe object's recovered (cached)
// value ("" marks absent), and the rebuilt write graph's shape.
type recovered struct {
	c     counters
	snap  map[op.ObjectID]stable.Versioned
	vals  map[op.ObjectID]string
	graph []string
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
		c:     countersOf(res),
		snap:  store.Snapshot(),
		vals:  make(map[op.ObjectID]string, len(universe)),
		graph: graphShape(res.Manager.WriteGraph()),
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
	if !slices.Equal(got.graph, base.graph) {
		t.Errorf("%s: write graph diverged:\n got %s\nwant %s", label,
			strings.Join(got.graph, "\n     "), strings.Join(base.graph, "\n     "))
	}
}

// graphShape describes a write graph independently of its node ids, which
// depend on the order operations arrived in: one line per node, naming it
// by its operations' LSNs, with its vars and Notx sets, and one line per
// edge between two nodes so named.  Lines are sorted.
func graphShape(wg *writegraph.Graph) []string {
	nodes := wg.Nodes()
	names := make([]string, len(nodes))
	var out []string
	for i, nv := range nodes {
		lsns := make([]op.SI, len(nv.Ops))
		for k, o := range nv.Ops {
			lsns[k] = o.LSN
		}
		slices.Sort(lsns)
		names[i] = fmt.Sprint(lsns)
		out = append(out, fmt.Sprintf("node %s vars %v notx %v", names[i], nv.Vars, nv.Notx))
	}
	for i, u := range nodes {
		for j, v := range nodes {
			if wg.HasEdge(u.ID, v.ID) {
				out = append(out, fmt.Sprintf("edge %s -> %s", names[i], names[j]))
			}
		}
	}
	slices.Sort(out)
	return out
}

// recoverImage recovers an independent copy of the crash image under opts.
// With demanders == 0 it runs the serial Recover.  Otherwise it goes through
// StartOnDemand: demanders goroutines, seeded from demandSeed, issue random
// RequireRead/RequireOp/RequireRange calls while the background replayer
// drains and the calling goroutine Waits.
func recoverImage(t *testing.T, img crashImage, opts recovery.Options, universe []op.ObjectID, demanders int, demandSeed int64) recovered {
	t.Helper()
	log, store := openImage(t, img)
	if demanders == 0 {
		res, err := recovery.Recover(log, store, opts)
		if err != nil {
			t.Fatal(err)
		}
		return collect(t, res, store, universe)
	}
	od, err := recovery.StartOnDemand(log, store, opts)
	if err != nil {
		t.Fatalf("demanders=%d: %v", demanders, err)
	}
	var wg sync.WaitGroup
	for g := int64(0); g < int64(demanders); g++ {
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
					t.Errorf("demanders=%d: demand: %v", demanders, err)
				}
			}
		}(rand.New(rand.NewSource(demandSeed + g)))
	}
	res, err := od.Wait() // races the demanders, as llserve's drain does
	wg.Wait()
	if err != nil {
		t.Fatalf("demanders=%d: %v", demanders, err)
	}
	return collect(t, res, store, universe)
}

// openImage returns an independent copy of the crash image's log and store.
func openImage(t *testing.T, img crashImage) (*wal.Log, *stable.Store) {
	t.Helper()
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
	return log, store
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

// recoveryOptions is recovery's view of an engine configuration, with a
// fresh registry of builtin transforms.
func recoveryOptions(opts core.Options) recovery.Options {
	return recovery.Options{Test: opts.RedoTest, Cache: cache.Config{
		Policy:      opts.Policy,
		Strategy:    opts.Strategy,
		LogInstalls: opts.LogInstalls,
		Registry:    op.NewRegistry(),
	}}
}

// demanderCounts is the demand-concurrency axis: how many goroutines issue
// Require* calls against the background replayer and a Wait caller.
var demanderCounts = []int{1, 2, 4}

// checkScenario recovers one crash image every way the scheduler can be
// driven — the serial Recover, StartOnDemand with each count of racing
// demanders, and Recover with a metrics registry and flight recorder
// attached — and requires identical counters, stable snapshots, and
// recovered object values against the plain Recover.  The instrumented
// run's decision counters must also equal the Result's tallies, and its
// recorder must have seen the run's decisions and phases.
func checkScenario(t *testing.T, opts core.Options, sc sim.Scenario) {
	t.Helper()
	img, universe := capture(t, opts, sc)
	ropts := recoveryOptions(opts)
	base := recoverImage(t, img, ropts, universe, 0, 0)
	for _, n := range demanderCounts {
		got := recoverImage(t, img, ropts, universe, n, sc.Seed*131+int64(n))
		requireSame(t, fmt.Sprintf("seed %d demanders=%d", sc.Seed, n), got, base)
	}

	reg := obs.NewRegistry()
	fl := flight.NewRecorder(flight.DefaultRingSize)
	inst := ropts
	inst.Cache.Obs, inst.Flight = reg, fl
	label := fmt.Sprintf("seed %d instrumented", sc.Seed)
	requireSame(t, label, recoverImage(t, img, inst, universe, 0, 0), base)
	c := reg.Snapshot().Counters
	if c["recovery.decide.redo"] != int64(base.c.Redone) ||
		c["recovery.decide.skip_installed"] != int64(base.c.SkippedInstalled) ||
		c["recovery.decide.skip_unexposed"] != int64(base.c.SkippedUnexposed) ||
		c["recovery.decide.voided"] != int64(base.c.Voided) {
		t.Errorf("%s: decide counters %v disagree with %+v", label, c, base.c)
	}
	phases := 0
	for _, ev := range fl.Events() {
		if ev.Kind == flight.KindPhase {
			phases++
		}
	}
	if events, _, _ := fl.Counters(); base.c.Scanned > 0 && (events == 0 || phases == 0) {
		t.Errorf("%s: %d flight events, %d phases", label, events, phases)
	}
}

// TestParallelRedoMatrix runs the full configuration matrix over randomized
// scenarios, serially and with 1, 2 and 4 racing demanders.
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

// TestRedoGraphEquivalence holds the write graph the chain scheduler and its
// graph stage rebuild — Recover's, and StartOnDemand's after Wait with 1, 2
// and 4 racing demanders — to the one a serial replay of the same redo
// suffix builds through the synchronous sink (cache.Manager.AddToGraph),
// over the configuration matrix: the same nodes by operation LSN, the same
// vars and Notx sets, the same edges.  Values and counters must match too.
func TestRedoGraphEquivalence(t *testing.T) {
	for name, opts := range parallelConfigs() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			ops := 0
			for seed := int64(1); seed <= 10; seed++ {
				img, universe := capture(t, opts, sim.DefaultScenario(seed))
				ropts := recoveryOptions(opts)
				log, store := openImage(t, img)
				res, err := recovery.ReplaySerially(log, store, ropts)
				if err != nil {
					t.Fatal(err)
				}
				ref := collect(t, res, store, universe)
				ops += res.Manager.WriteGraph().OpCount()
				requireSame(t, fmt.Sprintf("seed %d Recover", seed), recoverImage(t, img, ropts, universe, 0, 0), ref)
				for _, n := range demanderCounts {
					got := recoverImage(t, img, ropts, universe, n, seed*977+int64(n))
					requireSame(t, fmt.Sprintf("seed %d demanders=%d", seed, n), got, ref)
				}
			}
			if ops == 0 {
				t.Fatal("no scenario left a redone operation in the write graph; the comparison is vacuous")
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
// run by the engine.  Its recovered values must equal those of the serial
// Recover of the same crash image with the store intact, which the
// demand-interleaved drains must match in full; and its counters and values
// must equal a serial recovery.Redo of an independent copy of the log over
// the backup image, the scheduler MediaRecover hands its own prologue's
// state to.
func TestMediaRecoverDriverEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		opts := core.DefaultOptions()
		dev := wal.NewMemDevice()
		opts.LogDevice = dev
		eng, err := core.New(opts)
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
		logBytes, err := dev.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		img := crashImage{logBytes: logBytes, snap: eng.Store().Snapshot()}
		universe := make([]op.ObjectID, sc.Objects)
		for i := range universe {
			universe[i] = op.ObjectID(fmt.Sprintf("obj%02d", i))
		}
		ropts := recoveryOptions(opts)
		crash := recoverImage(t, img, ropts, universe, 0, 0)
		for _, n := range demanderCounts {
			got := recoverImage(t, img, ropts, universe, n, seed*131+int64(n))
			requireSame(t, fmt.Sprintf("seed %d crash demanders=%d", seed, n), got, crash)
		}

		eng.Store().Restore(nil) // the media failure
		res, err := backup.MediaRecover(eng, b)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Redone == 0 {
			t.Fatalf("seed %d: media recovery redid nothing; the row is vacuous", seed)
		}
		media := collect(t, res, eng.Store(), universe)
		for x, want := range crash.vals {
			if media.vals[x] != want {
				t.Errorf("seed %d: media recovery's %s = %q, crash recovery's %q", seed, x, media.vals[x], want)
			}
		}

		copyDev := wal.NewMemDevice()
		if err := copyDev.Append(logBytes); err != nil {
			t.Fatal(err)
		}
		log, err := wal.New(copyDev)
		if err != nil {
			t.Fatal(err)
		}
		store := stable.NewStore()
		store.Restore(b.Objects)
		ropts.Test = recovery.TestVSI
		mgr, err := cache.NewManager(ropts.Cache, log, store)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := recovery.Redo(log, mgr, nil, b.StartLSN, ropts)
		if err != nil {
			t.Fatalf("seed %d: serial redo: %v", seed, err)
		}
		requireSame(t, fmt.Sprintf("seed %d media", seed), media, collect(t, serial, store, universe))
	}
}
