package wal

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"logicallog/internal/obs"
	"logicallog/internal/op"
)

var streamSeedFlag = flag.Int64("seed", 0, "pin randomized stream tests to this single seed (0 = full range)")

// genRecord returns the i-th record of the deterministic mixed workload used
// by the byte-identity tests.  A fresh Record is built per call so each run
// gets its own LSN fields.
func genRecord(rng *rand.Rand, keys []op.ObjectID) *Record {
	k := keys[rng.Intn(len(keys))]
	switch rng.Intn(10) {
	case 0:
		return NewFlushRecord(k, 1)
	case 1:
		return NewCheckpointRecord([]DirtyEntry{{ID: k, RSI: op.SI(rng.Intn(5) + 1)}})
	case 2:
		return NewOpRecord(op.NewIdentityWrite(k, randVal(rng)))
	case 3:
		other := keys[rng.Intn(len(keys))]
		return NewOpRecord(op.NewLogical(op.FuncCopy, []byte(k),
			[]op.ObjectID{other}, []op.ObjectID{k}))
	case 4:
		return NewOpRecord(op.NewDelete(k))
	default:
		return NewOpRecord(op.NewPhysicalWrite(k, randVal(rng)))
	}
}

func randVal(rng *rand.Rand) []byte {
	v := make([]byte, 1+rng.Intn(64))
	rng.Read(v)
	return v
}

// runStreamWorkload drives the same seeded workload against a fresh log
// configured with the given stream count, forcing at deterministic points,
// and returns the durable device bytes.
func runStreamWorkload(t *testing.T, seed int64, streams int, absorb bool) []byte {
	t.Helper()
	keys := []op.ObjectID{"K0", "K1", "K2", "K3"}
	rng := rand.New(rand.NewSource(seed))
	dev := NewMemDevice()
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	l.SetStreams(streams, absorb)
	appended := op.SI(0)
	for i := 0; i < 200; i++ {
		lsn := mustAppend(t, l, genRecord(rng, keys))
		appended = lsn
		if rng.Intn(20) == 0 {
			upTo := op.SI(1 + rng.Int63n(int64(appended)))
			if err := l.ForceThrough(upTo); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	data, err := dev.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestStreamDurableBytesIdentical(t *testing.T) {
	// The core fast-lane invariant: the durable byte stream is identical no
	// matter how many append lanes produced it.  A single-threaded workload
	// makes absorption decisions deterministic, so the check holds with
	// absorption on as well.
	for _, absorb := range []bool{false, true} {
		base := runStreamWorkload(t, 7, 1, absorb)
		for _, n := range []int{2, 4, 8} {
			got := runStreamWorkload(t, 7, n, absorb)
			if !bytes.Equal(base, got) {
				t.Errorf("absorb=%v: durable log with %d streams differs from single-stream (%d vs %d bytes)",
					absorb, n, len(got), len(base))
			}
		}
	}
}

func TestStreamConcurrentAppendsStayDense(t *testing.T) {
	l, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	l.SetStreams(4, true)
	const goroutines, perG = 8, 200
	// written records each append's (key, value) by assigned LSN, so the
	// durable log can be checked against true LSN order — not just density:
	// replay must end at the value of each key's highest-LSN write, and that
	// write must never be the one tombstoned (the inverted-absorption race
	// elided the later of two concurrent writes).
	var mu sync.Mutex
	written := make(map[op.SI]struct {
		key op.ObjectID
		val []byte
	})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Mix goroutine-private and shared keys so the absorption index
			// sees concurrent candidates.
			for i := 0; i < perG; i++ {
				var key op.ObjectID
				if i%3 == 0 {
					key = "shared"
				} else {
					key = op.ObjectID(fmt.Sprintf("g%d", g))
				}
				val := []byte{byte(g), byte(i)}
				lsn, err := l.AppendOp(op.NewPhysicalWrite(key, val))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				written[lsn] = struct {
					key op.ObjectID
					val []byte
				}{key, val}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	sc, err := l.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != goroutines*perG {
		t.Fatalf("durable records = %d, want %d", len(recs), goroutines*perG)
	}
	for i, rec := range recs {
		if rec.LSN != op.SI(i+1) {
			t.Fatalf("record %d has LSN %d: merged stream is not dense", i, rec.LSN)
		}
	}
	// Per-key oracle: the highest-LSN write to each key.
	lastWrite := make(map[op.ObjectID]op.SI)
	for lsn, w := range written {
		if lsn > lastWrite[w.key] {
			lastWrite[w.key] = lsn
		}
	}
	state := make(map[op.ObjectID][]byte)
	for _, rec := range recs {
		switch rec.Type {
		case RecOperation:
			for _, x := range rec.Op.WriteSet {
				state[x] = rec.Op.Values[x]
			}
		case RecAbsorbed:
			if lastWrite[rec.Absorbed.Object] == rec.LSN {
				t.Errorf("LSN %d, the last write to %q, was tombstoned: absorption inverted LSN order",
					rec.LSN, rec.Absorbed.Object)
			}
		default:
			t.Errorf("unexpected record type %s at LSN %d", rec.Type, rec.LSN)
		}
	}
	for key, lsn := range lastWrite {
		if want := written[lsn].val; !op.Equal(state[key], want) {
			t.Errorf("replayed %q = %v, want %v (value of its highest-LSN write, LSN %d)",
				key, state[key], want, lsn)
		}
	}
}

func TestBackoffCappedExponentialGrowth(t *testing.T) {
	// A hoisted Backoff must yield the capped doubling sequence.
	b := NewBackoff(time.Millisecond, 8*time.Millisecond)
	want := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond, 8 * time.Millisecond,
	}
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Errorf("Next() #%d = %v, want %v", i, got, w)
		}
	}
	// Zero base never sleeps.
	z := NewBackoff(0, time.Second)
	if got := z.Next(); got != 0 {
		t.Errorf("zero-base Next() = %v", got)
	}
}

func TestAbsorptionElidesSupersededWrite(t *testing.T) {
	r := obs.NewRegistry()
	l, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	l.SetObs(r)
	l.SetStreams(1, true)
	v1 := bytes.Repeat([]byte("a"), 256)
	mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite("X", v1)))
	mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite("X", []byte("v2"))))
	mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite("Y", []byte("w"))))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	sc, _ := l.Scan(0)
	recs, err := sc.All()
	if err != nil || len(recs) != 3 {
		t.Fatalf("scan: %d records, %v", len(recs), err)
	}
	if recs[0].Type != RecAbsorbed {
		t.Fatalf("superseded write survived as %s, want absorbed tombstone", recs[0].Type)
	}
	if recs[0].LSN != 1 || recs[0].Absorbed.Object != "X" {
		t.Errorf("tombstone = LSN %d obj %q", recs[0].LSN, recs[0].Absorbed.Object)
	}
	if recs[0].Absorbed.Elided <= 0 {
		t.Errorf("tombstone Elided = %d", recs[0].Absorbed.Elided)
	}
	if recs[1].Type != RecOperation || !op.Equal(recs[1].Op.Values["X"], []byte("v2")) {
		t.Error("absorbing write must survive in full")
	}
	st := l.Stats()
	if st.Absorbed != 1 {
		t.Errorf("Stats.Absorbed = %d", st.Absorbed)
	}
	if st.BytesElided <= 0 {
		t.Errorf("Stats.BytesElided = %d", st.BytesElided)
	}
	snap := r.Snapshot()
	if snap.Counters["wal.absorb.hits"] != 1 {
		t.Errorf("wal.absorb.hits = %d", snap.Counters["wal.absorb.hits"])
	}
	if snap.Counters["wal.absorb.bytes_elided"] <= 0 {
		t.Errorf("wal.absorb.bytes_elided = %d", snap.Counters["wal.absorb.bytes_elided"])
	}
}

func TestAbsorbedWriteCrashBeforeForce(t *testing.T) {
	// An absorbed record that was never forced must not survive a crash in
	// any form — neither its frame nor a tombstone.
	dev := NewMemDevice()
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	l.SetStreams(2, true)
	mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite("X", []byte("v1"))))
	mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite("X", []byte("v2"))))
	if lost := l.Crash(); lost != 2 {
		t.Errorf("Crash lost %d records, want 2", lost)
	}
	sc, _ := l.Scan(0)
	if recs, _ := sc.All(); len(recs) != 0 {
		t.Fatalf("%d records survived an unforced crash", len(recs))
	}
	// The absorption index died with the volatile tail: a restarted log is
	// not paired with a dead candidate and absorbs nothing.
	l2, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	l2.SetStreams(2, true)
	if lsn := mustAppend(t, l2, NewOpRecord(op.NewPhysicalWrite("X", []byte("v3")))); lsn != 1 {
		t.Errorf("post-crash LSN = %d, want 1", lsn)
	}
	if err := l2.Force(); err != nil {
		t.Fatal(err)
	}
	sc, _ = l2.Scan(0)
	recs, _ := sc.All()
	if len(recs) != 1 || recs[0].Type != RecOperation {
		t.Fatalf("post-crash log = %+v", recs)
	}
	if l2.Stats().Absorbed != 0 {
		t.Errorf("Stats.Absorbed = %d, want 0", l2.Stats().Absorbed)
	}
}

func TestIdentityWritesNeverAbsorbed(t *testing.T) {
	// W_IP(X) re-logs X's current value so a later redo can start from it;
	// eliding one would reopen the lost-write hole the identity write exists
	// to close.
	l, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	l.SetStreams(1, true)
	mustAppend(t, l, NewOpRecord(op.NewIdentityWrite("X", []byte("v1"))))
	mustAppend(t, l, NewOpRecord(op.NewIdentityWrite("X", []byte("v2"))))
	mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite("X", []byte("v3"))))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	sc, _ := l.Scan(0)
	recs, _ := sc.All()
	if len(recs) != 3 {
		t.Fatalf("scan: %d records", len(recs))
	}
	for i, rec := range recs {
		if rec.Type != RecOperation {
			t.Errorf("record %d is %s, want full op", i, rec.Type)
		}
	}
	if l.Stats().Absorbed != 0 {
		t.Errorf("Stats.Absorbed = %d, want 0", l.Stats().Absorbed)
	}
}

func TestReadPinPreventsAbsorption(t *testing.T) {
	// A logged operation that reads X between two writes of X pins the first
	// write: replay must reproduce the value the reader observed.
	l, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	l.SetStreams(1, true)
	mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite("X", []byte("v1"))))
	mustAppend(t, l, NewOpRecord(op.NewLogical(op.FuncCopy, []byte("Y"),
		[]op.ObjectID{"X"}, []op.ObjectID{"Y"})))
	mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite("X", []byte("v2"))))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	sc, _ := l.Scan(0)
	recs, _ := sc.All()
	if len(recs) != 3 {
		t.Fatalf("scan: %d records", len(recs))
	}
	if recs[0].Type != RecOperation || !op.Equal(recs[0].Op.Values["X"], []byte("v1")) {
		t.Errorf("pinned write did not survive in full: %+v", recs[0])
	}
	if l.Stats().Absorbed != 0 {
		t.Errorf("Stats.Absorbed = %d, want 0", l.Stats().Absorbed)
	}
}

// rawAppend claims the next LSN and buffers rec on stream idx WITHOUT
// updating the absorption index — the two halves of Append split apart so
// tests can deterministically replay the cross-stream interleavings the
// scheduler produces: LSN claims are globally ordered, but each record's
// index update runs under its own stream mutex and can reach a shard out of
// LSN order.  Callers follow up with l.noteAbsorb in the order under test.
func rawAppend(t *testing.T, l *Log, idx int, rec *Record) streamRec {
	t.Helper()
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	set := l.lanes.Load()
	s := set.streams[idx]
	s.mu.Lock()
	defer s.mu.Unlock()
	lsn := op.SI(l.nextLSN.Add(1) - 1)
	rec.LSN = lsn
	if rec.Op != nil {
		rec.Op.LSN = lsn
	}
	var obj op.ObjectID
	if set.absorb {
		obj, _ = absorbTarget(rec)
	}
	return s.append(rec, lsn, obj)
}

func TestAbsorptionInvertedIndexOrder(t *testing.T) {
	// Regression for the cross-stream absorption race: two concurrent blind
	// writes to X land on different streams, and the higher-LSN write's index
	// update reaches the shard first.  The lower-LSN write must then be the
	// absorbed one; the buggy index absorbed whichever update arrived first,
	// tombstoning the LATER write so replay regressed X to the older value.
	l, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	l.SetStreams(2, true)
	recOld := NewOpRecord(op.NewPhysicalWrite("X", []byte("old")))
	srOld := rawAppend(t, l, 0, recOld) // LSN 1
	recNew := NewOpRecord(op.NewPhysicalWrite("X", []byte("new")))
	srNew := rawAppend(t, l, 1, recNew) // LSN 2
	l.noteAbsorb(recNew, srNew)         // index updates arrive inverted
	l.noteAbsorb(recOld, srOld)
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	sc, _ := l.Scan(0)
	recs, err := sc.All()
	if err != nil || len(recs) != 2 {
		t.Fatalf("scan: %d records, %v", len(recs), err)
	}
	if recs[1].Type != RecOperation || !op.Equal(recs[1].Op.Values["X"], []byte("new")) {
		t.Fatalf("highest-LSN write did not survive in full: %+v", recs[1])
	}
	// The absorption itself must still happen — just with the right victim.
	if recs[0].Type != RecAbsorbed || recs[0].Absorbed.Object != "X" {
		t.Errorf("superseded lower-LSN write = %+v, want absorbed tombstone", recs[0])
	}
	if st := l.Stats(); st.Absorbed != 1 {
		t.Errorf("Stats.Absorbed = %d, want 1", st.Absorbed)
	}
}

func TestReadPinSurvivesIndexOrderInversion(t *testing.T) {
	// Regression for the observer-ordering race: a reader claims LSN 2 and
	// its index update reaches the shard BEFORE the LSN-1 writer registers
	// its candidate.  Without the per-object observer horizon the candidate
	// survived the reader, a later write absorbed record 1, and replaying
	// the reader observed the wrong value of X.
	l, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	l.SetStreams(2, true)
	recW := NewOpRecord(op.NewPhysicalWrite("X", []byte("v1")))
	srW := rawAppend(t, l, 0, recW) // LSN 1
	recR := NewOpRecord(op.NewLogical(op.FuncCopy, []byte("Y"),
		[]op.ObjectID{"X"}, []op.ObjectID{"Y"}))
	srR := rawAppend(t, l, 1, recR) // LSN 2 reads X
	l.noteAbsorb(recR, srR)         // reader's update lands first
	l.noteAbsorb(recW, srW)
	mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite("X", []byte("v2")))) // LSN 3
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	sc, _ := l.Scan(0)
	recs, err := sc.All()
	if err != nil || len(recs) != 3 {
		t.Fatalf("scan: %d records, %v", len(recs), err)
	}
	if recs[0].Type != RecOperation || !op.Equal(recs[0].Op.Values["X"], []byte("v1")) {
		t.Fatalf("read-pinned write did not survive in full: %+v", recs[0])
	}
	if st := l.Stats(); st.Absorbed != 0 {
		t.Errorf("Stats.Absorbed = %d, want 0", st.Absorbed)
	}
}

func TestLateObserverCancelsRecordedAbsorption(t *testing.T) {
	// The mirror-image observer race: the absorption of record 1 by record 3
	// is already recorded in the index when the intervening reader's (LSN 2)
	// update finally reaches the shard.  The reader must cancel the recorded
	// pair, or replaying its logical op would observe v2 instead of v1.
	l, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	l.SetStreams(2, true)
	mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite("X", []byte("v1")))) // LSN 1, candidate
	recR := NewOpRecord(op.NewLogical(op.FuncCopy, []byte("Y"),
		[]op.ObjectID{"X"}, []op.ObjectID{"Y"}))
	srR := rawAppend(t, l, 1, recR)                                       // LSN 2 reads X; update delayed
	mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite("X", []byte("v2")))) // LSN 3 absorbs 1
	l.noteAbsorb(recR, srR)                                               // late observer
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	sc, _ := l.Scan(0)
	recs, err := sc.All()
	if err != nil || len(recs) != 3 {
		t.Fatalf("scan: %d records, %v", len(recs), err)
	}
	if recs[0].Type != RecOperation || !op.Equal(recs[0].Op.Values["X"], []byte("v1")) {
		t.Fatalf("observed write was elided despite the late read pin: %+v", recs[0])
	}
	if st := l.Stats(); st.Absorbed != 0 {
		t.Errorf("Stats.Absorbed = %d, want 0", st.Absorbed)
	}
}

func TestStreamConcurrentReadersWritersReplayConsistent(t *testing.T) {
	// Race stress for the observer horizon: concurrent blind writers on X and
	// logical readers of X.  Replaying the durable log, every reader must
	// observe exactly the value of the highest-LSN write below it — i.e. no
	// record a reader depends on was elided — and X must end at the value of
	// its overall highest-LSN write.
	l, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	l.SetStreams(4, true)
	const writers, readers, perG = 4, 4, 100
	var mu sync.Mutex
	writes := make(map[op.SI][]byte)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				val := []byte{byte(g), byte(i)}
				lsn, err := l.AppendOp(op.NewPhysicalWrite("X", val))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				writes[lsn] = val
				mu.Unlock()
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := []byte(fmt.Sprintf("Y%d", g))
			for i := 0; i < perG; i++ {
				o := op.NewLogical(op.FuncCopy, dst, []op.ObjectID{"X"}, []op.ObjectID{op.ObjectID(dst)})
				if _, err := l.AppendOp(o); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	sc, err := l.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	if want := (writers + readers) * perG; len(recs) != want {
		t.Fatalf("durable records = %d, want %d", len(recs), want)
	}
	// wantAt returns the value a record at lsn must observe for X: that of
	// the highest write LSN strictly below it.
	wantAt := func(lsn op.SI) []byte {
		var best op.SI
		for w := range writes {
			if w < lsn && w > best {
				best = w
			}
		}
		return writes[best]
	}
	var cur []byte
	for _, rec := range recs {
		switch {
		case rec.Type == RecAbsorbed:
			// elided write: no state change
		case rec.Op.Kind == op.KindPhysicalWrite:
			cur = rec.Op.Values["X"]
		case rec.Op.Kind == op.KindLogical:
			if want := wantAt(rec.LSN); !op.Equal(cur, want) {
				t.Fatalf("reader at LSN %d observes X=%v, want %v: an observed write was elided",
					rec.LSN, cur, want)
			}
		default:
			t.Fatalf("unexpected record %+v", rec)
		}
	}
	if want := wantAt(op.SI(len(recs)) + 1); !op.Equal(cur, want) {
		t.Errorf("final X = %v, want %v (highest-LSN write)", cur, want)
	}
}

func TestShippedRecordsNeverAbsorbed(t *testing.T) {
	// Build shipped frames from a source log whose absorption is off, then
	// replay them into a standby with absorption on: AppendShipped bypasses
	// the stream lanes and the absorption index entirely, so both writes to X
	// survive byte-for-byte.
	src, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, src, NewOpRecord(op.NewPhysicalWrite("X", []byte("v1"))))
	mustAppend(t, src, NewOpRecord(op.NewPhysicalWrite("X", []byte("v2"))))
	if err := src.Force(); err != nil {
		t.Fatal(err)
	}
	sc, _ := src.Scan(0)
	recs, _ := sc.All()
	if len(recs) != 2 {
		t.Fatalf("source scan: %d records", len(recs))
	}

	dst, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	dst.SetStreams(4, true)
	for _, rec := range recs {
		if err := dst.AppendShipped(rec); err != nil {
			t.Fatalf("AppendShipped: %v", err)
		}
	}
	if err := dst.Force(); err != nil {
		t.Fatal(err)
	}
	sc2, _ := dst.Scan(0)
	got, _ := sc2.All()
	if len(got) != 2 {
		t.Fatalf("standby scan: %d records", len(got))
	}
	for i, rec := range got {
		if rec.Type != RecOperation {
			t.Errorf("shipped record %d replaced by %s", i, rec.Type)
		}
	}
	if dst.Stats().Absorbed != 0 {
		t.Errorf("standby Stats.Absorbed = %d, want 0", dst.Stats().Absorbed)
	}
}

func TestAbsorptionCancelledWhenAbsorberOutsideHorizon(t *testing.T) {
	// Force a horizon that covers the superseded write but not its absorber:
	// the write must merge in full, because a crash after this force must
	// still recover its value.
	dev := NewMemDevice()
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	l.SetStreams(1, true)
	mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite("X", []byte("v1"))))
	mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite("X", []byte("v2"))))
	if err := l.ForceThrough(1); err != nil {
		t.Fatal(err)
	}
	l.Crash()
	l2, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := l2.Scan(0)
	recs, _ := sc.All()
	if len(recs) != 1 {
		t.Fatalf("after crash: %d durable records, want 1", len(recs))
	}
	if recs[0].Type != RecOperation || !op.Equal(recs[0].Op.Values["X"], []byte("v1")) {
		t.Fatalf("durable record = %+v, want full v1 write", recs[0])
	}
}

// replayState applies a durable record stream to a flat object map, skipping
// absorbed tombstones — the reference model for absorption equivalence.
func replayState(t *testing.T, recs []*Record) map[op.ObjectID][]byte {
	t.Helper()
	state := make(map[op.ObjectID][]byte)
	for _, rec := range recs {
		if rec.Type != RecOperation {
			continue
		}
		o := rec.Op
		switch o.Kind {
		case op.KindPhysicalWrite, op.KindIdentityWrite, op.KindCreate:
			for _, x := range o.WriteSet {
				state[x] = append([]byte(nil), o.Values[x]...)
			}
		case op.KindDelete:
			for _, x := range o.WriteSet {
				delete(state, x)
			}
		case op.KindLogical:
			switch o.Func {
			case op.FuncCopy:
				state[op.ObjectID(o.Params)] = append([]byte(nil), state[o.ReadSet[0]]...)
			default:
				t.Fatalf("replayState: unsupported func %q", o.Func)
			}
		default:
			t.Fatalf("replayState: unsupported kind %s", o.Kind)
		}
	}
	return state
}

func TestRandomAbsorptionReplayEquivalence(t *testing.T) {
	// Property: for any workload and force schedule, replaying the absorbed
	// log yields exactly the state of replaying the unabsorbed log, and the
	// absorbed log is never larger.
	seeds := []int64{}
	if *streamSeedFlag != 0 {
		seeds = append(seeds, *streamSeedFlag)
	} else {
		for s := int64(1); s <= 25; s++ {
			seeds = append(seeds, s)
		}
	}
	for _, seed := range seeds {
		run := func(absorb bool) ([]*Record, int) {
			data := runStreamWorkload(t, seed, 3, absorb)
			dev := NewMemDevice()
			if err := dev.Rewrite(data); err != nil {
				t.Fatal(err)
			}
			l, err := New(dev)
			if err != nil {
				t.Fatalf("seed %d: reopen absorbed=%v: %v", seed, absorb, err)
			}
			sc, err := l.Scan(0)
			if err != nil {
				t.Fatal(err)
			}
			recs, err := sc.All()
			if err != nil {
				t.Fatal(err)
			}
			return recs, len(data)
		}
		plain, plainBytes := run(false)
		absorbed, absorbedBytes := run(true)
		if len(plain) != len(absorbed) {
			t.Fatalf("seed %d: record counts differ: %d vs %d (absorption must preserve LSN density)",
				seed, len(plain), len(absorbed))
		}
		if absorbedBytes > plainBytes {
			t.Errorf("seed %d: absorbed log larger than plain (%d > %d)", seed, absorbedBytes, plainBytes)
		}
		want := replayState(t, plain)
		got := replayState(t, absorbed)
		if len(want) != len(got) {
			t.Fatalf("seed %d: replayed state sizes differ: %d vs %d", seed, len(want), len(got))
		}
		for k, v := range want {
			if !op.Equal(got[k], v) {
				t.Errorf("seed %d: object %q: absorbed replay %q, want %q", seed, k, got[k], v)
			}
		}
	}
}
