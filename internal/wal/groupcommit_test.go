package wal

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"logicallog/internal/op"
)

// gatedDevice wraps a MemDevice and blocks the first Append until released,
// so a test can pile followers up behind an in-flight leader force.
type gatedDevice struct {
	*MemDevice
	started chan struct{} // closed when the gated Append begins
	release chan struct{} // Append proceeds once this closes
	once    sync.Once
}

func newGatedDevice() *gatedDevice {
	return &gatedDevice{
		MemDevice: NewMemDevice(),
		started:   make(chan struct{}),
		release:   make(chan struct{}),
	}
}

func (d *gatedDevice) Append(p []byte) error {
	d.once.Do(func() {
		close(d.started)
		<-d.release
	})
	return d.MemDevice.Append(p)
}

// TestGroupCommitCoalesces pins the leader/follower protocol: committers
// that arrive while a leader's device write is in flight must not issue
// their own writes once the leader (or a single successor) covers them.
func TestGroupCommitCoalesces(t *testing.T) {
	dev := newGatedDevice()
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}

	// One record the leader will force, blocking inside the device.
	leaderLSN, err := l.AppendOp(op.NewPhysicalWrite("x", []byte("v0")))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := l.ForceThrough(leaderLSN); err != nil {
			t.Error(err)
		}
	}()
	<-dev.started // leader is inside the device write

	// Followers append (their records are NOT in the leader's buffer) and
	// force; they must wait, and at most one of them becomes the next
	// leader while the rest coalesce onto its write.
	const followers = 6
	for i := 0; i < followers; i++ {
		lsn, err := l.AppendOp(op.NewPhysicalWrite("x", []byte{byte(i)}))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(lsn op.SI) {
			defer wg.Done()
			if err := l.ForceThrough(lsn); err != nil {
				t.Error(err)
			}
		}(lsn)
	}
	// Give the followers a moment to block on the in-flight force.
	time.Sleep(50 * time.Millisecond)
	close(dev.release)
	wg.Wait()

	st := l.Stats()
	if st.Forces >= int64(followers+1) {
		t.Fatalf("Forces = %d: no coalescing across %d committers", st.Forces, followers+1)
	}
	if st.Forces+st.ForcesCoalesced < 2 {
		t.Fatalf("Forces=%d ForcesCoalesced=%d: follower accounting lost", st.Forces, st.ForcesCoalesced)
	}
	if got := l.StableLSN(); got != leaderLSN+followers {
		t.Fatalf("StableLSN = %d, want %d", got, leaderLSN+followers)
	}
	// Everything must actually be on the device, in order.
	sc, err := l.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != followers+1 {
		t.Fatalf("device holds %d records, want %d", len(recs), followers+1)
	}
	for i, rec := range recs {
		if rec.LSN != op.SI(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}
}

// TestAppendsDuringInFlightWrite grows the tail far past its capacity while
// a leader is writing a prefix of it from the tail in place: the leader's
// bytes must not move or change under it, and once the rest is forced the
// device must hold every frame exactly once, in LSN order.
func TestAppendsDuringInFlightWrite(t *testing.T) {
	dev := newGatedDevice()
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	appendRec := func(rec *Record) op.SI {
		lsn := mustAppend(t, l, rec)
		want = AppendFrame(want, rec)
		return lsn
	}
	lsn := appendRec(NewOpRecord(op.NewPhysicalWrite("x", []byte("v0"))))
	done := make(chan error, 1)
	go func() { done <- l.ForceThrough(lsn) }()
	<-dev.started // the leader is inside the device write

	const records = 64
	for i := 0; i < records; i++ {
		appendRec(NewOpRecord(op.NewPhysicalWrite("x", bytes.Repeat([]byte{byte(i)}, 4<<10))))
	}
	close(dev.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if got := l.StableLSN(); got != lsn+records {
		t.Fatalf("StableLSN = %d, want %d", got, lsn+records)
	}
	got, err := dev.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("device holds %d bytes that differ from the %d appended", len(got), len(want))
	}
}

// TestCrashDuringInFlightWrite crashes the log while a leader is writing a
// prefix of the tail and appends into the emptied tail before the write
// returns.  The leader must still write the bytes it cut, and must not drop
// the record appended after the crash from the new tail.
func TestCrashDuringInFlightWrite(t *testing.T) {
	dev := newGatedDevice()
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	before := NewOpRecord(op.NewPhysicalWrite("x", []byte("before")))
	lsn := mustAppend(t, l, before)
	want := AppendFrame(nil, before)
	done := make(chan error, 1)
	go func() { done <- l.ForceThrough(lsn) }()
	<-dev.started

	if lost := l.Crash(); lost != 1 {
		t.Fatalf("Crash lost %d records, want 1", lost)
	}
	after := NewOpRecord(op.NewPhysicalWrite("y", []byte("after!")))
	mustAppend(t, l, after)
	close(dev.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, _ := dev.ReadAll(); !bytes.Equal(got, want) {
		t.Fatalf("in-flight write landed %q, want %q", got, want)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	want = AppendFrame(want, after)
	if got, _ := dev.ReadAll(); !bytes.Equal(got, want) {
		t.Fatalf("device holds %d bytes, want %d: the post-crash record was lost", len(got), len(want))
	}
}

// TestStatsSnapshotIsDeepClone pins the Stats race fix: a snapshot taken
// concurrently with appenders must share no maps with the live stats.
func TestStatsSnapshotIsDeepClone(t *testing.T) {
	l, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendOp(op.NewPhysicalWrite("x", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	snap := l.Stats()
	before := snap.Records[RecOperation]
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			if _, err := l.AppendOp(op.NewPhysicalWrite("x", []byte("v"))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Reading the snapshot while the appender runs must be race-free (the
	// -race build enforces this) and must not observe the appender.
	for i := 0; i < 100; i++ {
		if got := snap.Records[RecOperation]; got != before {
			t.Fatalf("snapshot mutated: %d -> %d", before, got)
		}
		_ = l.Stats()
	}
	<-done
	if got := l.Stats().Records[RecOperation]; got != before+500 {
		t.Fatalf("live stats = %d, want %d", got, before+500)
	}
}
