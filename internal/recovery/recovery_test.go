package recovery_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/fault"
	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	. "logicallog/internal/recovery"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
	"logicallog/internal/writegraph"
)

func TestRedoTestString(t *testing.T) {
	if TestRedoAll.String() != "redo-all" || TestVSI.String() != "vSI" ||
		TestRSI.String() != "rSI" || RedoTest(9).String() == "" {
		t.Error("RedoTest.String wrong")
	}
}

func newEngine(t *testing.T, opts core.Options) *core.Engine {
	t.Helper()
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func exec(t *testing.T, eng *core.Engine, o *op.Operation) {
	t.Helper()
	if err := eng.Execute(o); err != nil {
		t.Fatalf("Execute(%s): %v", o, err)
	}
}

func TestRecoverEmptyLog(t *testing.T) {
	eng := newEngine(t, core.DefaultOptions())
	eng.Crash()
	res, err := eng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone != 0 || res.ScannedOps != 0 {
		t.Errorf("empty recovery = %+v", res)
	}
}

func TestRecoverNothingForced(t *testing.T) {
	// Ops executed but never forced: a crash loses them entirely; the
	// stable database stays empty and recovery redoes nothing.
	eng := newEngine(t, core.DefaultOptions())
	exec(t, eng, op.NewCreate("X", []byte("v")))
	eng.Crash()
	res, err := eng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone != 0 {
		t.Errorf("Redone = %d, want 0", res.Redone)
	}
	if _, err := eng.Get("X"); err == nil {
		t.Error("unforced operation survived the crash")
	}
}

func TestRecoverForcedButUnflushed(t *testing.T) {
	// Ops forced to the log but not installed: redo recreates them.
	eng := newEngine(t, core.DefaultOptions())
	exec(t, eng, op.NewCreate("X", []byte("v0")))
	exec(t, eng, op.NewPhysioWrite("X", op.FuncAppend, []byte("+1")))
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	res, err := eng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone != 2 {
		t.Errorf("Redone = %d, want 2", res.Redone)
	}
	v, err := eng.Get("X")
	if err != nil || string(v) != "v0+1" {
		t.Errorf("recovered X = %q, %v", v, err)
	}
	// The recovered write graph lets the engine flush.
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	sv, err := eng.Store().Read("X")
	if err != nil || string(sv.Val) != "v0+1" {
		t.Errorf("flushed X = %+v, %v", sv, err)
	}
}

func TestVSISkipsInstalledOps(t *testing.T) {
	// Installation logging off: the redo scan covers installed operations,
	// and only the per-object vSI comparison prevents their re-execution.
	eng := newEngine(t, core.Options{
		Policy:      writegraph.PolicyRW,
		Strategy:    cache.StrategyIdentityWrite,
		RedoTest:    TestVSI,
		LogInstalls: false,
	})
	exec(t, eng, op.NewCreate("X", []byte("v0")))
	exec(t, eng, op.NewCreate("Y", []byte("w0")))
	if err := eng.FlushAll(); err != nil { // installs both
		t.Fatal(err)
	}
	exec(t, eng, op.NewPhysioWrite("X", op.FuncAppend, []byte("+1")))
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	res, err := eng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone != 1 {
		t.Errorf("Redone = %d, want 1 (only the unflushed append)", res.Redone)
	}
	if res.SkippedInstalled == 0 {
		t.Error("vSI test skipped nothing")
	}
	v, _ := eng.Get("X")
	if string(v) != "v0+1" {
		t.Errorf("recovered X = %q", v)
	}
}

// TestRSISkipsUnexposed is the paper's headline recovery optimization: an
// operation whose entire writeset is unexposed (operation A below — its only
// written object X was installed without flushing because C blindly rewrote
// it) must be bypassed by the generalized rSI test, while the traditional
// vSI test — seeing no installed witness, because X was never flushed —
// re-executes it.
func TestRSISkipsUnexposed(t *testing.T) {
	run := func(test RedoTest) *Result {
		eng := newEngine(t, core.Options{
			Policy:      writegraph.PolicyRW,
			Strategy:    cache.StrategyIdentityWrite,
			RedoTest:    test,
			LogInstalls: true,
		})
		// pin: a never-installed object that pins the redo scan start at
		// LSN 1 so every record is scanned and tested.
		exec(t, eng, op.NewCreate("pin", []byte("p")))       // LSN 1
		exec(t, eng, op.NewPhysicalWrite("X", []byte("xA"))) // LSN 2: A
		exec(t, eng, op.NewLogical(op.FuncCopy, []byte("Z"), // LSN 3: B
			[]op.ObjectID{"X"}, []op.ObjectID{"Z"}))
		exec(t, eng, op.NewPhysicalWrite("X", []byte("xC"))) // LSN 4: C

		// Install B's node (flushes Z), then A's node, whose flush set is
		// empty: X was removed from it by C's blind write, so A installs
		// without flushing anything.
		wg := eng.Cache().WriteGraph()
		nb, ok := wg.NodeOfOp(3)
		if !ok {
			t.Fatal("no node for B")
		}
		if _, err := eng.Cache().InstallNode(nb); err != nil {
			t.Fatal(err)
		}
		na, ok := wg.NodeOfOp(2)
		if !ok {
			t.Fatal("no node for A")
		}
		if _, err := eng.Cache().InstallNode(na); err != nil {
			t.Fatal(err)
		}
		if err := eng.Log().Force(); err != nil {
			t.Fatal(err)
		}
		eng.Crash()
		res, err := eng.Recover()
		if err != nil {
			t.Fatal(err)
		}
		// Whatever the test, the recovered state must be correct.
		for x, want := range map[op.ObjectID]string{"pin": "p", "X": "xC", "Z": "xA"} {
			v, err := eng.Get(x)
			if err != nil || string(v) != want {
				t.Fatalf("test %v: recovered %s = %q, %v", test, x, v, err)
			}
		}
		return res
	}

	rsi := run(TestRSI)
	vsi := run(TestVSI)
	// Under rSI: pin and C are redone; A is bypassed as unexposed; B is
	// manifestly installed (Z's stable vSI).
	if rsi.Redone != 2 {
		t.Errorf("rSI Redone = %d, want 2 (pin and C)", rsi.Redone)
	}
	if rsi.SkippedUnexposed != 1 {
		t.Errorf("rSI SkippedUnexposed = %d, want 1 (A)", rsi.SkippedUnexposed)
	}
	if rsi.SkippedInstalled != 1 {
		t.Errorf("rSI SkippedInstalled = %d, want 1 (B)", rsi.SkippedInstalled)
	}
	// The plain vSI test re-executes A: X was never flushed, so no object
	// of A's writeset witnesses its installation.
	if vsi.Redone != 3 {
		t.Errorf("vSI Redone = %d, want 3 (pin, A, C)", vsi.Redone)
	}
}

func TestCheckpointShortensAnalysis(t *testing.T) {
	eng := newEngine(t, core.DefaultOptions())
	for i := 0; i < 20; i++ {
		exec(t, eng, op.NewPhysicalWrite("X", []byte{byte(i)}))
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	exec(t, eng, op.NewPhysicalWrite("X", []byte{99}))
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	res, err := eng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointLSN == 0 {
		t.Error("analysis missed the checkpoint")
	}
	if res.ScannedOps != 1 {
		t.Errorf("ScannedOps = %d, want 1 (scan starts after checkpointed clean state)", res.ScannedOps)
	}
	if res.Redone != 1 {
		t.Errorf("Redone = %d, want 1", res.Redone)
	}
	v, _ := eng.Get("X")
	if len(v) != 1 || v[0] != 99 {
		t.Errorf("recovered X = %v", v)
	}
}

func TestDeletedObjectOpsBypassed(t *testing.T) {
	// Section 5: "Many objects named in log records will, in fact, be
	// terminated or deleted, and so will not be exposed.  Hence, one can
	// treat all their operations as installed ... even when they have not
	// been flushed recently, or ever."
	eng := newEngine(t, core.DefaultOptions())
	exec(t, eng, op.NewCreate("tmp", []byte("scratch")))
	exec(t, eng, op.NewPhysioWrite("tmp", op.FuncAppend, []byte("work")))
	exec(t, eng, op.NewDelete("tmp"))
	exec(t, eng, op.NewCreate("keep", []byte("k")))
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	res, err := eng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone != 0 {
		t.Errorf("Redone = %d, want 0 (everything installed)", res.Redone)
	}
	if _, err := eng.Get("tmp"); err == nil {
		t.Error("deleted object resurrected")
	}
	v, err := eng.Get("keep")
	if err != nil || string(v) != "k" {
		t.Errorf("keep = %q, %v", v, err)
	}
}

func TestRedoAllOnPhysicalLog(t *testing.T) {
	// Redo-all is safe for a physical-write-only log (Section 5's example).
	eng := newEngine(t, core.Options{
		Policy:      writegraph.PolicyRW,
		Strategy:    cache.StrategyIdentityWrite,
		RedoTest:    TestRedoAll,
		LogInstalls: true,
	})
	exec(t, eng, op.NewPhysicalWrite("X", []byte("1")))
	exec(t, eng, op.NewPhysicalWrite("X", []byte("2")))
	exec(t, eng, op.NewPhysicalWrite("Y", []byte("3")))
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	res, err := eng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone != 3 {
		t.Errorf("Redone = %d, want 3", res.Redone)
	}
	x, _ := eng.Get("X")
	if string(x) != "2" {
		t.Errorf("X = %q", x)
	}
}

func TestVoidedTrialExecution(t *testing.T) {
	// An operation whose input object is gone from the recovering state is
	// voided, not fatal.  Construct the log by hand: a logical op reading
	// an object that never existed on the stable side.
	log, err := wal.New(wal.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	store := stable.NewStore()
	ghost := op.NewLogical(op.FuncCopy, []byte("out"), []op.ObjectID{"ghost"}, []op.ObjectID{"out"})
	if _, err := log.AppendOp(ghost); err != nil {
		t.Fatal(err)
	}
	if err := log.Force(); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(log, store, Options{
		Test:  TestRSI,
		Cache: cache.Config{Policy: writegraph.PolicyRW, Registry: op.NewRegistry(), LogInstalls: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Voided != 1 || res.Redone != 0 {
		t.Errorf("Voided = %d, Redone = %d", res.Voided, res.Redone)
	}
}

// TestRecoverUnknownFuncFails: an operation whose FuncID the recovering
// registry lacks is a configuration error, not inapplicable state.  Voiding
// it would drop the domain's writes and report success, so recovery fails,
// naming the FuncID and the record's LSN.
func TestRecoverUnknownFuncFails(t *testing.T) {
	log, err := wal.New(wal.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []*op.Operation{
		op.NewCreate("X", []byte("x")),
		op.NewPhysioWrite("X", "domain.notregistered", []byte("p")),
	} {
		if _, err := log.AppendOp(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Force(); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(log, stable.NewStore(), Options{
		Test:  TestRSI,
		Cache: cache.Config{Policy: writegraph.PolicyRW, Registry: op.NewRegistry(), LogInstalls: true},
	})
	if !errors.Is(err, op.ErrUnknownFunc) {
		t.Fatalf("Recover = %+v, %v; want op.ErrUnknownFunc", res, err)
	}
	for _, want := range []string{`"domain.notregistered"`, "@2 "} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

func TestRecoverRepairsPendingFlushTxn(t *testing.T) {
	eng := newEngine(t, core.Options{
		Policy:      writegraph.PolicyRW,
		Strategy:    cache.StrategyFlushTxn,
		RedoTest:    TestRSI,
		LogInstalls: true,
	})
	// Build a multi-object flush set via the cycle example, then crash the
	// store mid-flush after the flush transaction commits.
	exec(t, eng, op.NewCreate("X", []byte{1}))
	exec(t, eng, op.NewCreate("Y", []byte{2}))
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	exec(t, eng, op.NewLogical(op.FuncXor, op.EncodeParams([]byte("Y"), []byte("X")),
		[]op.ObjectID{"X", "Y"}, []op.ObjectID{"Y"}))
	exec(t, eng, op.NewLogical(op.FuncCopy, []byte("X"), []op.ObjectID{"Y"}, []op.ObjectID{"X"}))
	exec(t, eng, op.NewPhysioWrite("Y", op.FuncAppend, []byte{9}))

	// The three ops collapse to one node with vars {X,Y}.  Crash after the
	// flush transaction committed (2 log writes + commit) but before the
	// in-place writes completed: that is the batch's 4th write (index 3).
	plan := fault.NewPlan(fault.Point{Chan: fault.ChanStable, Index: 3, Kind: fault.KindCrash})
	eng.Store().SetWriteProbe(plan.StableProbe())
	err := eng.FlushAll()
	if err == nil {
		t.Fatal("expected injected crash")
	}
	if !eng.Store().HasPending() {
		t.Fatal("no pending flush transaction")
	}
	eng.Crash()
	plan.Heal()
	res, err := eng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !res.PendingFlushTxnRepaired {
		t.Error("pending flush transaction not repaired")
	}
	x, _ := eng.Get("X")
	y, _ := eng.Get("Y")
	wantY := []byte{1 ^ 2}
	wantX := append([]byte(nil), wantY...)
	wantY = append(wantY, 9)
	if !op.Equal(x, wantX) || !op.Equal(y, wantY) {
		t.Errorf("recovered X=%v Y=%v, want X=%v Y=%v", x, y, wantX, wantY)
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	eng := newEngine(t, core.DefaultOptions())
	exec(t, eng, op.NewCreate("X", []byte("a")))
	exec(t, eng, op.NewPhysioWrite("X", op.FuncAppend, []byte("b")))
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	v1, _ := eng.Get("X")
	// Crash again before flushing anything; recover again.
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	v2, _ := eng.Get("X")
	if !op.Equal(v1, v2) || string(v2) != "ab" {
		t.Errorf("idempotence broken: %q vs %q", v1, v2)
	}
}

// TestAnalysisUsesTheLaterCheckpoint: analysis is one scan of the whole
// log, and a later checkpoint restates the dirty table.  Object A is dirty
// in the first checkpoint's table and absent from the second's (it was
// installed without a logged install record in between), so redo must
// start at B's rSI, not A's, and the checkpoint and record counts are those
// of the second checkpoint.
func TestAnalysisUsesTheLaterCheckpoint(t *testing.T) {
	log, err := wal.New(wal.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*wal.Record{
		wal.NewOpRecord(op.NewCreate("A", []byte("a"))),                     // 1
		wal.NewCheckpointRecord([]wal.DirtyEntry{{ID: "A", RSI: 1}}),        // 2
		wal.NewOpRecord(op.NewCreate("B", []byte("b"))),                     // 3
		wal.NewCheckpointRecord([]wal.DirtyEntry{{ID: "B", RSI: 3}}),        // 4
		wal.NewOpRecord(op.NewPhysioWrite("B", op.FuncAppend, []byte("+"))), // 5
	} {
		if _, err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Force(); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(log, stable.NewStore(), Options{
		Test:  TestRSI,
		Cache: cache.Config{Policy: writegraph.PolicyRW, Registry: op.NewRegistry(), LogInstalls: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointLSN != 4 || res.AnalyzedRecords != 2 || res.RedoStart != 3 {
		t.Errorf("CheckpointLSN %d, AnalyzedRecords %d, RedoStart %d; want 4, 2, 3",
			res.CheckpointLSN, res.AnalyzedRecords, res.RedoStart)
	}
	if res.ScannedOps != 2 || res.Redone != 2 {
		t.Errorf("ScannedOps %d, Redone %d; want 2, 2 (B's create and append)", res.ScannedOps, res.Redone)
	}
}

// countingDevice counts full-device reads.
type countingDevice struct {
	wal.Device
	reads int
}

func (d *countingDevice) ReadAll() ([]byte, error) {
	d.reads++
	return d.Device.ReadAll()
}

// TestRecoverReadsLogOnce: a restart reads the device once.  Restart's
// torn-tail walk decodes the durable records and hands them to analysis,
// which keeps the operation records so the redo pass takes its suffix from
// them; neither reads the device again.  A torn final append is trimmed by
// that walk and never reaches analysis.
func TestRecoverReadsLogOnce(t *testing.T) {
	for _, torn := range []bool{false, true} {
		dev := &countingDevice{Device: wal.NewMemDevice()}
		log, err := wal.New(dev)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []*op.Operation{
			op.NewCreate("X", []byte("x")),
			op.NewPhysioWrite("X", op.FuncAppend, []byte("+")),
		} {
			if _, err := log.AppendOp(o); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := log.Append(wal.NewCheckpointRecord([]wal.DirtyEntry{{ID: "X", RSI: 1}})); err != nil {
			t.Fatal(err)
		}
		if err := log.Force(); err != nil {
			t.Fatal(err)
		}
		if torn {
			// The final append lands all but the last byte of its frame.
			o := op.NewPhysioWrite("X", op.FuncAppend, []byte("!"))
			o.LSN = 4
			frame := wal.AppendFrame(nil, &wal.Record{Type: wal.RecOperation, LSN: 4, Op: o})
			if err := dev.Append(frame[:len(frame)-1]); err != nil {
				t.Fatal(err)
			}
		}
		log.Crash()
		dev.reads = 0
		res, err := Recover(log, stable.NewStore(), Options{
			Test:  TestRSI,
			Cache: cache.Config{Policy: writegraph.PolicyRW, Registry: op.NewRegistry(), LogInstalls: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if dev.reads != 1 {
			t.Errorf("torn=%v: Recover read the device %d times, want 1", torn, dev.reads)
		}
		if res.CheckpointLSN != 3 || res.AnalyzedRecords != 1 || res.Redone != 2 {
			t.Errorf("torn=%v: CheckpointLSN %d, AnalyzedRecords %d, Redone %d; want 3, 1, 2",
				torn, res.CheckpointLSN, res.AnalyzedRecords, res.Redone)
		}
	}
}

// TestRecoverPhasesSurviveInSpill recovers with a flight recorder whose ring
// is far smaller than the run, spilling to a file, and reads the file back:
// the restart, analysis, redo-scan and redo-partition phases are there on
// actor "recovery", each chain recorded exactly one chain phase, and every
// phase's LSN bounds are ordered.
func TestRecoverPhasesSurviveInSpill(t *testing.T) {
	opts := core.DefaultOptions()
	eng := newEngine(t, opts)
	for i := 0; i < 120; i++ {
		id := op.ObjectID(fmt.Sprintf("k%02d", i%30))
		if err := eng.Execute(op.NewCreate(id, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()

	path := filepath.Join(t.TempDir(), "recover.spill")
	fl, _, err := flight.OpenSpill(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res, err := Recover(eng.Log(), eng.Store(), Options{
		Test: opts.RedoTest,
		Cache: cache.Config{
			Policy: opts.Policy, Strategy: opts.Strategy,
			LogInstalls: opts.LogInstalls, Registry: eng.Registry(), Obs: reg,
		},
		Flight: fl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, drops, _ := fl.Counters(); drops == 0 {
		t.Fatal("the ring kept every event; the spill proves nothing")
	}
	events, err := flight.ReadSpill(path)
	if err != nil {
		t.Fatal(err)
	}

	phases := map[flight.Decision]int{}
	chains := 0
	for _, ev := range events {
		if ev.Kind != flight.KindPhase {
			continue
		}
		if ev.LSN > ev.Ref || ev.N < 0 {
			t.Errorf("phase %v: bounds [%d, %d], duration %d", ev.Dec, ev.LSN, ev.Ref, ev.N)
		}
		if ev.Dec == flight.DecChain {
			chains++
		} else if ev.Actor == "recovery" {
			phases[ev.Dec]++
		}
	}
	for _, d := range []flight.Decision{flight.DecRestart, flight.DecAnalysis, flight.DecRedoScan, flight.DecRedoPartition} {
		if phases[d] != 1 {
			t.Errorf("%s phases on actor recovery = %d, want 1", d, phases[d])
		}
	}
	if want := reg.Snapshot().Gauges["recovery.redo.chains"]; want != 30 || int64(chains) != want {
		t.Errorf("%d chain phases for %d chains (want 30)", chains, want)
	}
	if res.Redone != 120 {
		t.Errorf("redone = %d, want 120", res.Redone)
	}
}
