package core_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"runtime"
	"sync"
	"testing"

	. "logicallog/internal/core"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/workload"
)

var ondemandSeed = flag.Int64("ondemand-seed", 7, "base seed for on-demand recovery tests")

// crashWorkload drives a deterministic mixed stream (with mid-stream
// installs and a checkpoint) into eng and crashes it with a durable redo
// suffix.  Two engines fed the same seed end up with byte-identical durable
// state, so full and on-demand recovery can be compared across them.
func crashWorkload(t *testing.T, eng *Engine, seed int64) {
	t.Helper()
	spec := workload.DefaultSpec(seed)
	spec.Objects = 24
	spec.Steps = 300
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range gen.Stream() {
		if err := eng.Execute(o); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if i%17 == 9 {
			if err := eng.InstallOne(); err != nil {
				t.Fatalf("install at %d: %v", i, err)
			}
		}
		if i == 150 {
			if err := eng.CheckpointOnly(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
}

func compareEngines(t *testing.T, full, demand *Engine) {
	t.Helper()
	fullIDs, err := full.Objects("", "")
	if err != nil {
		t.Fatal(err)
	}
	demandIDs, err := demand.Objects("", "")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fullIDs) != fmt.Sprint(demandIDs) {
		t.Fatalf("live objects diverge:\n full:   %v\n demand: %v", fullIDs, demandIDs)
	}
	for _, x := range fullIDs {
		fv, err := full.Get(x)
		if err != nil {
			t.Fatalf("full Get(%s): %v", x, err)
		}
		dv, err := demand.Get(x)
		if err != nil {
			t.Fatalf("demand Get(%s): %v", x, err)
		}
		if !bytes.Equal(fv, dv) {
			t.Errorf("object %s diverges after on-demand redo", x)
		}
	}
}

func compareResults(t *testing.T, fullRes, odRes *recovery.Result) {
	t.Helper()
	type cut struct {
		ckpt                            op.SI
		start                           op.SI
		analyzed, scanned               int
		redone, skipInst, skipUnexp, vd int
	}
	f := cut{fullRes.CheckpointLSN, fullRes.RedoStart, fullRes.AnalyzedRecords, fullRes.ScannedOps,
		fullRes.Redone, fullRes.SkippedInstalled, fullRes.SkippedUnexposed, fullRes.Voided}
	d := cut{odRes.CheckpointLSN, odRes.RedoStart, odRes.AnalyzedRecords, odRes.ScannedOps,
		odRes.Redone, odRes.SkippedInstalled, odRes.SkippedUnexposed, odRes.Voided}
	if f != d {
		t.Errorf("recovery results diverge:\n full:   %+v\n demand: %+v", f, d)
	}
}

// TestOnDemandByteIdentity is the tentpole acceptance check: an on-demand
// drain — with 1 or 4 goroutines' demand reads racing the background
// replayer — ends in exactly the state (and with exactly the per-decision
// counters) of a full-redo restart of the same crashed image.
func TestOnDemandByteIdentity(t *testing.T) {
	for _, demanders := range []int{1, 4} {
		t.Run(fmt.Sprintf("demanders=%d", demanders), func(t *testing.T) {
			seed := *ondemandSeed
			opts := DefaultOptions()

			full := newEng(t, opts)
			crashWorkload(t, full, seed)
			fullRes, err := full.Recover()
			if err != nil {
				t.Fatal(err)
			}

			demand := newEng(t, opts)
			crashWorkload(t, demand, seed)
			if full.Log().StableLSN() != demand.Log().StableLSN() {
				t.Fatalf("crashed images diverge: stable LSN %d vs %d",
					full.Log().StableLSN(), demand.Log().StableLSN())
			}
			od, err := demand.RecoverOnDemand()
			if err != nil {
				t.Fatal(err)
			}
			// Demand reads while the background replayer is still
			// draining: served values must already match full-redo state.
			var wg sync.WaitGroup
			for g := 0; g < demanders; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 3 * g; i < 24; i += 3 * demanders {
						x := op.ObjectID(fmt.Sprintf("w%03d", i))
						dv, derr := demand.Get(x)
						fv, ferr := full.Get(x)
						switch {
						case derr != nil && ferr == nil:
							t.Errorf("demand Get(%s) failed (%v) but full redo has %d bytes", x, derr, len(fv))
						case derr == nil && ferr != nil:
							t.Errorf("demand served %s but full redo says %v", x, ferr)
						case derr == nil && !bytes.Equal(fv, dv):
							t.Errorf("object %s served mid-drain diverges from full redo", x)
						}
					}
				}(g)
			}
			wg.Wait()
			odRes, err := od.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if !od.Done() {
				t.Error("Done() false after clean Wait")
			}
			compareResults(t, fullRes, odRes)
			compareEngines(t, full, demand)
		})
	}
}

// TestOnDemandServesBeforeDrain checks the instant-recovery property: with
// the one background replayer and many chains, a demand read returns before the
// drain completes (the requester replays just its own chain).
func TestOnDemandServesBeforeDrain(t *testing.T) {
	eng := newEng(t, DefaultOptions())
	// Many independent single-object chains.
	for i := 0; i < 200; i++ {
		x := op.ObjectID(fmt.Sprintf("c%03d", i))
		if err := eng.Execute(op.NewCreate(x, bytes.Repeat([]byte{byte(i)}, 64))); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	od, err := eng.RecoverOnDemand()
	if err != nil {
		t.Fatal(err)
	}
	if od.Chains() < 100 {
		t.Fatalf("expected many chains, got %d", od.Chains())
	}
	v, err := eng.Get("c199")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, bytes.Repeat([]byte{199}, 64)) {
		t.Errorf("demand-served value wrong: %d bytes", len(v))
	}
	_, inFlight, done := od.ChainCounts()
	if done+inFlight >= od.Chains() {
		// The background replayer outran us — legal, just not informative.
		t.Logf("drain finished before the demand read returned (done=%d)", done)
	} else {
		t.Logf("served with %d/%d chains drained", done, od.Chains())
	}
	if _, err := od.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Get("c000"); err != nil {
		t.Fatal(err)
	}
}

// TestOnDemandAbort: crashing mid-drain aborts the scheduler; direct
// Require*/Wait on it report ErrAborted, and a fresh full recovery of the
// same engine succeeds.
func TestOnDemandAbort(t *testing.T) {
	eng := newEng(t, DefaultOptions())
	crashWorkload(t, eng, *ondemandSeed+1)
	od, err := eng.RecoverOnDemand()
	if err != nil {
		t.Fatal(err)
	}
	eng.Crash() // aborts the gate
	if err := od.RequireRead("w000"); !errors.Is(err, recovery.ErrAborted) {
		t.Errorf("RequireRead after abort = %v, want ErrAborted", err)
	}
	if _, err := od.Wait(); !errors.Is(err, recovery.ErrAborted) {
		t.Errorf("Wait after abort = %v, want ErrAborted", err)
	}
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Get("w000"); err != nil {
		t.Fatal(err)
	}
}

// TestOnDemandWriteGating: a write during the drain lands on recovered
// state — the post-drain value reflects redo-then-write order, identical to
// recovering fully first and then writing.
func TestOnDemandWriteGating(t *testing.T) {
	build := func() *Engine {
		eng := newEng(t, DefaultOptions())
		if err := eng.Execute(op.NewCreate("a", []byte("base"))); err != nil {
			t.Fatal(err)
		}
		if err := eng.Execute(op.NewPhysioWrite("a", op.FuncAppend, []byte("+redo"))); err != nil {
			t.Fatal(err)
		}
		if err := eng.Log().Force(); err != nil {
			t.Fatal(err)
		}
		eng.Crash()
		return eng
	}

	full := build()
	if _, err := full.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := full.Execute(op.NewPhysioWrite("a", op.FuncAppend, []byte("+new"))); err != nil {
		t.Fatal(err)
	}

	demand := build()
	od, err := demand.RecoverOnDemand()
	if err != nil {
		t.Fatal(err)
	}
	if err := demand.Execute(op.NewPhysioWrite("a", op.FuncAppend, []byte("+new"))); err != nil {
		t.Fatal(err)
	}
	if _, err := od.Wait(); err != nil {
		t.Fatal(err)
	}
	fv, err := full.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	dv, err := demand.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fv, dv) || !bytes.Equal(fv, []byte("base+redo+new")) {
		t.Errorf("write gating: full=%q demand=%q", fv, dv)
	}
}

// TestOnDemandObjectsEnumeration: enumeration during the drain sees redo
// creations and deletions (RequireRange gating), and global operations
// (FlushAll) drain fully first.
func TestOnDemandObjectsEnumeration(t *testing.T) {
	eng := newEng(t, DefaultOptions())
	for i := 0; i < 6; i++ {
		x := op.ObjectID(fmt.Sprintf("e%d", i))
		if err := eng.Execute(op.NewCreate(x, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Execute(op.NewDelete("e2")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Execute(op.NewCreate("e9", []byte("new"))); err != nil {
		t.Fatal(err)
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	if _, err := eng.RecoverOnDemand(); err != nil {
		t.Fatal(err)
	}
	ids, err := eng.Objects("e", "f")
	if err != nil {
		t.Fatal(err)
	}
	want := "[e0 e1 e3 e4 e5 e9]"
	if got := fmt.Sprint(ids); got != want {
		t.Errorf("Objects = %v, want %v", got, want)
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Store().Read("e2"); err == nil {
		t.Error("deleted object e2 still in stable store after drain+flush")
	}
}

// TestOnDemandInstallAfterGateRelease: once the drain reports Done, the
// engine stops gating and may install straight away, so every redone
// operation must already be in the write graph — the write-graph stage
// drains before Done flips, not when the values are replayed.  The first
// install then works on the whole rebuilt graph, and FlushAll leaves
// nothing behind for a stage still adding.
func TestOnDemandInstallAfterGateRelease(t *testing.T) {
	const keys = 3000
	for round := 0; round < 3; round++ {
		eng := newEng(t, DefaultOptions())
		for i := 0; i < keys; i++ {
			x := op.ObjectID(fmt.Sprintf("g%04d", i))
			if err := eng.Execute(op.NewCreate(x, []byte{byte(i)})); err != nil {
				t.Fatal(err)
			}
			if err := eng.Execute(op.NewPhysicalWrite(x, []byte{byte(i), 1})); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Log().Force(); err != nil {
			t.Fatal(err)
		}
		eng.Crash()
		od, err := eng.RecoverOnDemand()
		if err != nil {
			t.Fatal(err)
		}
		for !od.Done() {
			runtime.Gosched()
		}
		// Done happens after the stage's last AddOp, so the graph may be
		// read without the engine mutex.
		if got := eng.Cache().WriteGraph().OpCount(); got != 2*keys {
			t.Fatalf("round %d: write graph holds %d operations when the gate releases, want all %d redone", round, got, 2*keys)
		}
		if err := eng.InstallOne(); err != nil {
			t.Fatal(err)
		}
		if err := eng.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if g := eng.Cache().WriteGraph(); g.Len() != 0 || g.OpCount() != 0 {
			t.Fatalf("round %d: FlushAll after the gate released left %d nodes, %d operations", round, g.Len(), g.OpCount())
		}
		for i := 0; i < keys; i += 997 {
			x := op.ObjectID(fmt.Sprintf("g%04d", i))
			if v, err := eng.Store().Read(x); err != nil || !bytes.Equal(v.Val, []byte{byte(i), 1}) {
				t.Fatalf("round %d: stable %s = %v, %v after FlushAll", round, x, v.Val, err)
			}
		}
	}
}
