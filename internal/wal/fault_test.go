// Torn-tail, bit-flip, reorder, and transient-retry coverage for the WAL
// through the fault-injection layer.  This lives in package wal_test because
// internal/fault imports internal/wal.
package wal_test

import (
	"bytes"
	"errors"
	"testing"

	"logicallog/internal/fault"
	"logicallog/internal/op"
	"logicallog/internal/wal"
)

// longName makes the faulted record's frame comfortably longer than
// MaxRecordHeader so every cut length 1..MaxRecordHeader lands inside it.
const longName = op.ObjectID("torn-tail-padding-object")

func mustAppendRec(t *testing.T, l *wal.Log, rec *wal.Record) op.SI {
	t.Helper()
	lsn, err := l.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

// TestTornTailEveryLength tears the final append at every prefix length
// 1..MaxRecordHeader bytes and checks, for each: the scan stops before the
// torn record, restart over the device resumes at the last whole record,
// and Restart trims the debris so the log keeps working.
func TestTornTailEveryLength(t *testing.T) {
	for cut := 1; cut <= wal.MaxRecordHeader; cut++ {
		plan := fault.NewPlan(fault.Point{
			Chan: fault.ChanWAL, Index: 1, Kind: fault.KindTorn, Arg: cut,
		})
		dev := plan.WrapDevice(wal.NewMemDevice())
		l, err := wal.New(dev)
		if err != nil {
			t.Fatal(err)
		}
		mustAppendRec(t, l, wal.NewFlushRecord("A", 1))
		if err := l.Force(); err != nil {
			t.Fatalf("cut %d: clean force failed: %v", cut, err)
		}
		mustAppendRec(t, l, wal.NewFlushRecord(longName, 2))
		err = l.Force()
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("cut %d: force error = %v, want injected fault", cut, err)
		}

		// The torn record must not be scannable.
		plan.Heal()
		sc, err := l.Scan(0)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := sc.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].LSN != 1 {
			t.Fatalf("cut %d: scan past torn tail: %v", cut, recs)
		}

		// A fresh Log over the torn device resumes at the whole record.
		l2, err := wal.New(dev)
		if err != nil {
			t.Fatal(err)
		}
		if l2.StableLSN() != 1 {
			t.Fatalf("cut %d: restart StableLSN = %d, want 1", cut, l2.StableLSN())
		}

		// In-process restart trims the debris and reuses the lost LSN.
		l.Crash()
		if _, err := l.Restart(); err != nil {
			t.Fatalf("cut %d: restart: %v", cut, err)
		}
		lsn := mustAppendRec(t, l, wal.NewFlushRecord("B", 3))
		if lsn != 2 {
			t.Fatalf("cut %d: post-trim LSN = %d, want 2", cut, lsn)
		}
		if err := l.Force(); err != nil {
			t.Fatalf("cut %d: post-trim force: %v", cut, err)
		}
		sc2, err := l.Scan(0)
		if err != nil {
			t.Fatal(err)
		}
		recs2, err := sc2.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs2) != 2 || recs2[1].LSN != 2 {
			t.Fatalf("cut %d: after trim+append: %v", cut, recs2)
		}
	}
}

// TestTornTailFullAppendLosesOnlyAck covers the "committed but unacked"
// tear: every byte of the append lands but the caller sees a crash.
// Restart must advance the durable horizon over the landed records.
func TestTornTailFullAppendLosesOnlyAck(t *testing.T) {
	plan := fault.NewPlan(fault.Point{
		Chan: fault.ChanWAL, Index: 0, Kind: fault.KindTorn, Arg: 1 << 20,
	})
	dev := plan.WrapDevice(wal.NewMemDevice())
	l, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	mustAppendRec(t, l, wal.NewFlushRecord("A", 1))
	mustAppendRec(t, l, wal.NewFlushRecord("B", 2))
	if err := l.Force(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("force error = %v, want injected fault", err)
	}
	plan.Heal()
	l.Crash()
	if _, err := l.Restart(); err != nil {
		t.Fatal(err)
	}
	if l.StableLSN() != 2 {
		t.Errorf("StableLSN = %d, want 2 (both records landed)", l.StableLSN())
	}
	if lsn := mustAppendRec(t, l, wal.NewFlushRecord("C", 3)); lsn != 3 {
		t.Errorf("next LSN = %d, want 3", lsn)
	}
}

// TestBitFlipStopsScan flips one bit in the final append: the CRC must
// reject the frame and Restart must trim it.
func TestBitFlipStopsScan(t *testing.T) {
	plan := fault.NewPlan(fault.Point{
		Chan: fault.ChanWAL, Index: 1, Kind: fault.KindBitFlip, Arg: 99,
	})
	dev := plan.WrapDevice(wal.NewMemDevice())
	l, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	mustAppendRec(t, l, wal.NewFlushRecord("A", 1))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	mustAppendRec(t, l, wal.NewFlushRecord("B", 2))
	if err := l.Force(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("force error = %v, want injected fault", err)
	}
	plan.Heal()
	sc, err := l.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("scan past flipped frame: %v", recs)
	}
	l.Crash()
	if _, err := l.Restart(); err != nil {
		t.Fatal(err)
	}
	if l.StableLSN() != 1 {
		t.Errorf("StableLSN = %d, want 1", l.StableLSN())
	}
}

// TestReorderedBatchTrimsAtGap drops a middle frame of a three-record
// group-commit append: the surviving suffix frames are unreachable past the
// LSN gap and must be trimmed, while frames before the gap stay durable.
func TestReorderedBatchTrimsAtGap(t *testing.T) {
	plan := fault.NewPlan(fault.Point{
		Chan: fault.ChanWAL, Index: 1, Kind: fault.KindReorder, Arg: 1,
	})
	dev := plan.WrapDevice(wal.NewMemDevice())
	l, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	mustAppendRec(t, l, wal.NewFlushRecord("A", 1))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	// One append carrying LSNs 2,3,4; frame index 1 (LSN 3) is dropped.
	mustAppendRec(t, l, wal.NewFlushRecord("B", 2))
	mustAppendRec(t, l, wal.NewFlushRecord("C", 3))
	mustAppendRec(t, l, wal.NewFlushRecord("D", 4))
	if err := l.Force(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("force error = %v, want injected fault", err)
	}
	plan.Heal()
	sc, err := l.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].LSN != 2 {
		t.Fatalf("scan across LSN gap: %v", recs)
	}
	l.Crash()
	if _, err := l.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := l.StableLSN(); got != 2 {
		t.Errorf("StableLSN = %d, want 2 (LSN 4 is beyond the gap)", got)
	}
}

// TestReorderedFirstAppendWipesDevice drops the leading frame of the very
// first append: nothing on the device connects to the log's first LSN, so
// Restart must distrust all of it.
func TestReorderedFirstAppendWipesDevice(t *testing.T) {
	plan := fault.NewPlan(fault.Point{
		Chan: fault.ChanWAL, Index: 0, Kind: fault.KindReorder, Arg: 0,
	})
	dev := plan.WrapDevice(wal.NewMemDevice())
	l, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	mustAppendRec(t, l, wal.NewFlushRecord("A", 1))
	mustAppendRec(t, l, wal.NewFlushRecord("B", 2))
	if err := l.Force(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("force error = %v, want injected fault", err)
	}
	plan.Heal()
	l.Crash()
	recs, err := l.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("Restart returned %d records, want none (orphaned suffix must not reach analysis)", len(recs))
	}
	if got := l.StableLSN(); got != 0 {
		t.Errorf("StableLSN = %d, want 0 (orphaned suffix must be wiped)", got)
	}
	sz, err := dev.Size()
	if err != nil {
		t.Fatal(err)
	}
	if sz != 0 {
		t.Errorf("device size = %d after trim, want 0", sz)
	}
}

// TestForceRetriesTransientFaults checks the capped-backoff retry absorbs
// consecutive transient EIOs up to the fixed retry budget, and gives up past it.
func TestForceRetriesTransientFaults(t *testing.T) {
	plan := fault.NewPlan(fault.Point{
		Chan: fault.ChanWAL, Index: 0, Kind: fault.KindTransient, Arg: 3,
	})
	dev := plan.WrapDevice(wal.NewMemDevice())
	l, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	mustAppendRec(t, l, wal.NewFlushRecord("A", 1))
	if err := l.Force(); err != nil {
		t.Fatalf("force with retry: %v", err)
	}
	if l.StableLSN() != 1 {
		t.Errorf("StableLSN = %d, want 1", l.StableLSN())
	}
	if got := l.Stats().TransientRetries; got != 3 {
		t.Errorf("TransientRetries = %d, want 3", got)
	}

	// Four consecutive EIOs exceed a 3-retry budget.
	plan2 := fault.NewPlan(fault.Point{
		Chan: fault.ChanWAL, Index: 0, Kind: fault.KindTransient, Arg: 4,
	})
	l2, err := wal.New(plan2.WrapDevice(wal.NewMemDevice()))
	if err != nil {
		t.Fatal(err)
	}
	mustAppendRec(t, l2, wal.NewFlushRecord("A", 1))
	err = l2.Force()
	if err == nil || !wal.IsTransient(err) {
		t.Fatalf("force error = %v, want transient failure after retries exhausted", err)
	}
}

// TestRetryAfterFailedForceResendsPrefix fails a Force with more transient
// errors than the retry budget, then forces a lower target.  The failed
// prefix stays in the tail, so the second force must re-send all of it —
// and nothing appended after the failure.
func TestRetryAfterFailedForceResendsPrefix(t *testing.T) {
	plan := fault.NewPlan(fault.Point{
		Chan: fault.ChanWAL, Index: 0, Kind: fault.KindTransient, Arg: 4,
	})
	dev := wal.NewMemDevice()
	l, err := wal.New(plan.WrapDevice(dev))
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	appendRec := func(v byte) {
		rec := wal.NewOpRecord(op.NewPhysicalWrite("X", []byte{v}))
		mustAppendRec(t, l, rec)
		want = wal.AppendFrame(want, rec)
	}
	for i := 0; i < 5; i++ {
		appendRec(byte(i))
	}
	if err := l.Force(); err == nil || !wal.IsTransient(err) {
		t.Fatalf("force error = %v, want transient failure after retries exhausted", err)
	}
	failed := want
	appendRec(5)

	if err := l.ForceThrough(2); err != nil {
		t.Fatal(err)
	}
	if got := l.StableLSN(); got != 5 {
		t.Errorf("StableLSN = %d, want 5: the whole failed prefix", got)
	}
	if got, _ := dev.ReadAll(); !bytes.Equal(got, failed) {
		t.Fatalf("device holds %d bytes, want the failed prefix's %d", len(got), len(failed))
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if got, _ := dev.ReadAll(); !bytes.Equal(got, want) {
		t.Fatalf("device holds %d bytes, want every frame's %d", len(got), len(want))
	}
}

// TestStagedBatchCrash crashes the second device append: the group-commit
// leader has staged its batch, the machine dies before any of it reaches the
// device, and recovery must see exactly the previously forced prefix and
// reuse the lost LSNs.
func TestStagedBatchCrash(t *testing.T) {
	plan := fault.NewPlan(fault.Point{
		Chan: fault.ChanWAL, Index: 1, Kind: fault.KindCrash,
	})
	dev := plan.WrapDevice(wal.NewMemDevice())
	l, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}

	// First batch is staged and forced cleanly (WAL boundary 0).
	mustAppendRec(t, l, wal.NewOpRecord(op.NewPhysicalWrite("X", []byte("v1"))))
	if err := l.Force(); err != nil {
		t.Fatalf("clean force: %v", err)
	}

	// Second batch is staged at boundary 1 and never hits the device.
	mustAppendRec(t, l, wal.NewOpRecord(op.NewPhysicalWrite("X", []byte("v2"))))
	mustAppendRec(t, l, wal.NewOpRecord(op.NewPhysicalWrite("Y", []byte("w"))))
	if err := l.Force(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("force error = %v, want injected fault", err)
	}
	if l.StableLSN() != 1 {
		t.Errorf("StableLSN = %d, want 1 after the staged batch was lost", l.StableLSN())
	}

	// The machine stopped: recovery reopens the device and must find only
	// the forced prefix, with no trace of the staged batch.
	if lost := l.Crash(); lost != 2 {
		t.Errorf("Crash lost %d records, want the 2 staged ones", lost)
	}
	plan.Heal()
	l2, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := l2.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("post-crash durable log = %v, want only LSN 1", recs)
	}
	// The restarted log reuses the lost LSNs, keeping the stream dense.
	if lsn := mustAppendRec(t, l2, wal.NewOpRecord(op.NewPhysicalWrite("Z", []byte("z")))); lsn != 2 {
		t.Errorf("post-crash LSN = %d, want 2", lsn)
	}
}
