package flight

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"logicallog/internal/frame"
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

// TestNilRecorderPhaseIsInert: an engine run without a recorder still calls
// Clock and Phase around every recovery phase; on a nil recorder Clock reads
// 0 and Phase records nothing, for every phase decision.
func TestNilRecorderPhaseIsInert(t *testing.T) {
	var r *Recorder
	if c := r.Clock(); c != 0 {
		t.Fatalf("nil recorder Clock = %v", c)
	}
	for _, d := range []Decision{DecAnalysis, DecChain} {
		start := r.Clock()
		r.Phase("recovery", d, start, 1, 9)
	}
	if evs := r.Events(); evs != nil {
		t.Fatalf("nil recorder returned events after Phase: %v", evs)
	}
	if e, d, s := r.Counters(); e != 0 || d != 0 || s != 0 {
		t.Fatalf("nil recorder counters after Phase = %d/%d/%d", e, d, s)
	}
}

// TestNilRecorderAllocatesNothing: every emitter on a nil recorder returns
// before its event reaches the heap, so an unobserved engine pays no
// allocation per decision.
func TestNilRecorderAllocatesNothing(t *testing.T) {
	var r *Recorder
	obj := op.ObjectID("x")
	emitters := map[string]func(){
		"RedoDecision": func() { r.RedoDecision("recovery", 1, DecRedo, obj, 2) },
		"ValueResolve": func() { r.ValueResolve(3, obj) },
		"ShipBatch":    func() { r.ShipBatch(DecSent, 1, 3, 3) },
		"ShipApply":    func() { r.ShipApply(DecAccept, 1, 1) },
		"Checkpoint":   func() { r.Checkpoint(9, 1) },
		"Truncate":     func() { r.Truncate(2) },
		"Clock":        func() { _ = r.Clock() },
		"Phase":        func() { r.Phase("recovery", DecChain, 0, 1, 3) },
	}
	for name, emit := range emitters {
		if got := testing.AllocsPerRun(100, emit); got != 0 {
			t.Errorf("nil recorder %s allocates %.0f per call, want 0", name, got)
		}
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

// TestConcurrentPhases: goroutines recording phases on their own actors
// each get every phase back, in order, with At − N at or after the Clock
// reading it began at and no two phases of one actor overlapping.
func TestConcurrentPhases(t *testing.T) {
	r := NewRecorder(1 << 12)
	const actors, per = 8, 200
	var wg sync.WaitGroup
	for a := 0; a < actors; a++ {
		wg.Add(1)
		go func(actor string) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				start := r.Clock()
				r.Phase(actor, DecChain, start, op.SI(i+1), op.SI(i+1))
			}
		}(fmt.Sprintf("redo-worker-%02d", a))
	}
	wg.Wait()
	byActor := map[string][]Event{}
	for _, ev := range r.Events() {
		if ev.Kind != KindPhase || ev.Dec != DecChain || ev.N < 0 {
			t.Fatalf("unexpected event %v", ev)
		}
		byActor[ev.Actor] = append(byActor[ev.Actor], ev)
	}
	if len(byActor) != actors {
		t.Fatalf("got %d actors, want %d", len(byActor), actors)
	}
	for actor, evs := range byActor {
		if len(evs) != per {
			t.Fatalf("%s: %d phases, want %d", actor, len(evs), per)
		}
		for i, ev := range evs {
			if ev.LSN != op.SI(i+1) {
				t.Fatalf("%s: phase %d has lsn %d", actor, i, ev.LSN)
			}
			if i > 0 && ev.At-time.Duration(ev.N) < evs[i-1].At {
				t.Fatalf("%s: phase %d starts before phase %d ended", actor, i, i-1)
			}
		}
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
	r.Phase("redo-worker-01", DecChain, r.Clock(), 5, 8)
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
	if len(back) != 4 {
		t.Fatalf("spill holds %d events, want 4", len(back))
	}
	if ring := r.Events(); back[3] != ring[3] || back[3].Kind != KindPhase || back[3].Dec != DecChain {
		t.Errorf("phase round-trip = %+v, ring has %+v", back[3], ring[3])
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
	second := len(data) / 3
	data[second+frame.Overhead] ^= 0xff
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
		11: "phase",
	}
	for k, name := range kinds {
		if got := k.String(); got != name {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), got, name)
		}
	}
	// Decision numbers are the spill format too: the phases follow gap.
	decs := map[Decision]string{
		10: "gap", 11: "restart", 12: "flush-txn-repair", 13: "analysis",
		14: "redo-scan", 15: "redo-partition", 16: "chain",
		17: "force-tail", 18: "purge-cache", 19: "recover", 20: "dec(20)",
	}
	for d, name := range decs {
		if got := d.String(); got != name {
			t.Errorf("Decision(%d).String() = %q, want %q", uint8(d), got, name)
		}
	}
}

// FuzzScanSpill feeds arbitrary bytes to the spill reader a reopen runs on
// whatever a crash left in the file.  Property: it never panics, the good
// prefix lies inside the input, and the events it accepted re-encode to
// frames that decode to equal events.
func FuzzScanSpill(f *testing.F) {
	var seed []byte
	for _, ev := range []Event{
		{Seq: 1, At: 5, Kind: KindRedoDecision, Dec: DecRedo, LSN: 3, Ref: 2, Object: "x", N: -2, Actor: "recovery"},
		{Seq: 2, Kind: KindCheckpoint, LSN: 10, N: 1},
		{Seq: 3, At: 90, Kind: KindPhase, Dec: DecAnalysis, LSN: 1, Ref: 10, N: 40, Actor: "recovery"},
	} {
		seed = appendSpillFrame(seed, &ev)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, good := scanSpill(data)
		if good < 0 || good > len(data) {
			t.Fatalf("good prefix %d of %d bytes", good, len(data))
		}
		var again []byte
		for i := range evs {
			again = appendSpillFrame(again, &evs[i])
		}
		back, n := scanSpill(again)
		if n != len(again) || !reflect.DeepEqual(back, evs) {
			t.Fatalf("re-encoded events do not decode equal:\n first  %+v\n second %+v", evs, back)
		}
	})
}

var (
	errShortWrite = errors.New("short write")
	errTruncate   = errors.New("truncate failed")
)

// faultyFile wraps a spill file and fails on cue: a short write lands half
// the batch and errors, a failed truncate cuts nothing.
type faultyFile struct {
	file
	shortWrites, failTruncates int
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.shortWrites > 0 {
		f.shortWrites--
		n, _ := f.file.Write(p[:len(p)/2])
		return n, errShortWrite
	}
	return f.file.Write(p)
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncates > 0 {
		f.failTruncates--
		return errTruncate
	}
	return f.file.Truncate(size)
}

// spillLSNs emits one checkpoint per LSN and flushes them as one batch.
func spillLSNs(t *testing.T, r *Recorder, lsns ...op.SI) {
	t.Helper()
	for _, l := range lsns {
		r.Checkpoint(l, 0)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
}

func reopenLSNs(t *testing.T, path string) []op.SI {
	t.Helper()
	r, prior, err := OpenSpill(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	var out []op.SI
	for _, ev := range prior {
		out = append(out, ev.LSN)
	}
	return out
}

// TestSpillShortWriteKeepsLaterEvents: a short write drops its own batch,
// but the partial frame it left must not strand the batches written after
// it — the file is cut back to its good prefix before the next write, and
// spill_bytes counts only whole frames.
func TestSpillShortWriteKeepsLaterEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.spill")
	r, _, err := OpenSpill(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	spillLSNs(t, r, 1, 2, 3)
	r.spill.f = &faultyFile{file: r.spill.f, shortWrites: 1}
	spillLSNs(t, r, 4)
	spillLSNs(t, r, 5, 6)
	_, _, spilled := r.Counters()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, good := scanSpill(data); spilled != int64(good) || good != len(data) {
		t.Errorf("spill_bytes = %d, readable prefix = %d, file = %d bytes", spilled, good, len(data))
	}
	if got, want := reopenLSNs(t, path), []op.SI{1, 2, 3, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("reopened spill holds %v, want %v", got, want)
	}
}

// TestSpillStopsWhenRollbackFails: if the cut back to the good prefix
// fails too, the recorder stops spilling instead of appending behind the
// torn frame; the ring keeps recording.
func TestSpillStopsWhenRollbackFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.spill")
	r, _, err := OpenSpill(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	spillLSNs(t, r, 1, 2)
	r.spill.f = &faultyFile{file: r.spill.f, shortWrites: 1, failTruncates: 1}
	spillLSNs(t, r, 3)
	_, _, before := r.Counters()
	spillLSNs(t, r, 4)
	if events, _, after := r.Counters(); after != before || events != 4 {
		t.Errorf("after a failed rollback: %d events, spill_bytes %d -> %d", events, before, after)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := reopenLSNs(t, path), []op.SI{1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("reopened spill holds %v, want %v", got, want)
	}
}
