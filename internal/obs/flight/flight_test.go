package flight

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"logicallog/internal/op"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.RedoDecision("recovery", 1, DecRedo, "x", 2)
	r.ValueResolve(3, "y")
	r.ShipBatch(DecSent, 1, 3, 3)
	r.ShipApply(DecAccept, 1, 1)
	r.Checkpoint(9, 1)
	r.Truncate(2)
	if evs := r.Events(); evs != nil {
		t.Fatalf("nil recorder returned events: %v", evs)
	}
	if e, d, s := r.Counters(); e != 0 || d != 0 || s != 0 {
		t.Fatalf("nil recorder counters = %d/%d/%d", e, d, s)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRingOrderAndEviction(t *testing.T) {
	r := NewRecorder(8)
	for i := 1; i <= 20; i++ {
		r.RedoDecision("recovery", op.SI(i), DecRedo, "x", 0)
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("ring of 8 holds %d events", len(evs))
	}
	for i, ev := range evs {
		if want := op.SI(13 + i); ev.LSN != want {
			t.Errorf("event %d: lsn = %d, want %d (newest 8 survive in order)", i, ev.LSN, want)
		}
	}
	events, drops, _ := r.Counters()
	if events != 20 || drops != 12 {
		t.Errorf("counters = %d events / %d drops, want 20 / 12", events, drops)
	}
}

func TestConcurrentEmitters(t *testing.T) {
	r := NewRecorder(1 << 14)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.RedoDecision("recovery", op.SI(w*per+i+1), DecSkipUnexposed, "", 0)
			}
		}(w)
	}
	wg.Wait()
	evs := r.Events()
	if len(evs) != workers*per {
		t.Fatalf("got %d events, want %d", len(evs), workers*per)
	}
	seen := make(map[uint64]bool, len(evs))
	for _, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	if events, drops, _ := r.Counters(); events != workers*per || drops != 0 {
		t.Errorf("counters = %d events / %d drops", events, drops)
	}
}

func TestSpillRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.spill")
	r, prior, err := OpenSpill(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 0 {
		t.Fatalf("fresh spill recovered %d events", len(prior))
	}
	r.RedoDecision("recovery", 12, DecSkipInstalled, "page3", 17)
	r.ShipBatch(DecLost, 4, 9, 128)
	r.Truncate(40)
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := ReadSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("spill holds %d events, want 3", len(back))
	}
	want := Event{Seq: 0, At: back[0].At, Kind: KindRedoDecision, Dec: DecSkipInstalled,
		LSN: 12, Ref: 17, Object: "page3", Actor: "recovery"}
	if back[0] != want {
		t.Errorf("round-trip event = %+v, want %+v", back[0], want)
	}
	if back[1].Kind != KindShipBatch || back[1].Dec != DecLost || back[1].N != 128 || back[1].Ref != 9 {
		t.Errorf("ship-batch round-trip = %+v", back[1])
	}
}

// TestSpillTornTailTrimmedOnReopen is the WAL rule applied to the spill:
// a crash mid-append leaves a torn final frame, and reopening trims it
// while keeping every complete frame before it — then appends cleanly.
func TestSpillTornTailTrimmedOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.spill")
	r, _, err := OpenSpill(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		r.RedoDecision("recovery", op.SI(i), DecRedo, "x", 0)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the last 3 bytes of the final frame.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	r2, prior, err := OpenSpill(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 4 {
		t.Fatalf("recovered %d events after torn tail, want 4", len(prior))
	}
	for i, ev := range prior {
		if ev.LSN != op.SI(i+1) {
			t.Errorf("recovered event %d: lsn = %d", i, ev.LSN)
		}
	}
	// Sequence numbers continue after the survivors.
	r2.Checkpoint(99, 1)
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	all, err := ReadSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("after reopen+append spill holds %d events, want 5", len(all))
	}
	if last := all[4]; last.Kind != KindCheckpoint || last.Seq != prior[3].Seq+1 {
		t.Errorf("appended event = %+v, want checkpoint with seq %d", last, prior[3].Seq+1)
	}
	// The file itself was physically trimmed back to the good prefix.
	trimmed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(trimmed) >= len(data) {
		t.Errorf("torn tail not trimmed: %d bytes vs %d before the tear", len(trimmed), len(data))
	}
}

// TestSpillCorruptMiddleStopsScan: a checksum-corrupt frame in the middle
// bounds the trusted prefix — nothing after it is believed.
func TestSpillCorruptMiddleStopsScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.spill")
	r, _, err := OpenSpill(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		r.Checkpoint(op.SI(i*10), int64(i))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the second frame.
	frame := len(data) / 3
	data[frame+spillFrameOverhead] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].LSN != 10 {
		t.Fatalf("corrupt middle frame: recovered %+v, want only the first checkpoint", evs)
	}
}

func TestCountersAndSpillBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.spill")
	r, _, err := OpenSpill(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	r.ShipBatch(DecLost, 5, 9, 5)
	r.ShipApply(DecGap, 12, 8)
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	events, drops, spilled := r.Counters()
	if events != 2 || drops != 0 {
		t.Errorf("counters = %d events / %d drops", events, drops)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if spilled != st.Size() || spilled == 0 {
		t.Errorf("spill_bytes = %d, file size = %d", spilled, st.Size())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEventString(t *testing.T) {
	ev := Event{Seq: 7, Kind: KindRedoDecision, Dec: DecSkipInstalled, LSN: 12, Ref: 17, Object: "p3", Actor: "recovery"}
	want := "#7 redo-decision skip-installed lsn=12 ref=17 obj=p3 actor=recovery"
	if got := ev.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	// Kind numbers are the spill format: the surviving kinds keep theirs,
	// and the retired absorption/merge numbers 3–6 render as unknown.
	kinds := map[Kind]string{
		1: "redo-decision", 2: "value-resolve",
		3: "kind(3)", 4: "kind(4)", 5: "kind(5)", 6: "kind(6)",
		7: "ship-batch", 8: "ship-apply", 9: "checkpoint", 10: "truncate",
	}
	for k, name := range kinds {
		if got := k.String(); got != name {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), got, name)
		}
	}
}
