package wal

import (
	"strings"
	"testing"

	"logicallog/internal/op"
)

func appendOps(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite("X", []byte{byte(i)})))
	}
}

func TestRetentionClampsTruncate(t *testing.T) {
	l, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	appendOps(t, l, 10)
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}

	horizon := op.SI(4)
	release := l.RegisterRetention(func() op.SI { return horizon })

	if err := l.Truncate(8); err != nil {
		t.Fatal(err)
	}
	if got := l.FirstLSN(); got != 4 {
		t.Errorf("FirstLSN = %d, want clamp at 4", got)
	}
	if got := l.Stats().TruncationsClamped; got != 1 {
		t.Errorf("TruncationsClamped = %d, want 1", got)
	}

	// The hook is consulted live: once the horizon advances, truncation
	// follows it.
	horizon = 7
	if err := l.Truncate(9); err != nil {
		t.Fatal(err)
	}
	if got := l.FirstLSN(); got != 7 {
		t.Errorf("FirstLSN = %d, want clamp at 7", got)
	}

	// Released, the hook no longer constrains anything.
	release()
	if err := l.Truncate(9); err != nil {
		t.Fatal(err)
	}
	if got := l.FirstLSN(); got != 9 {
		t.Errorf("FirstLSN after release = %d, want 9", got)
	}
}

func TestRetentionMinOverHooks(t *testing.T) {
	l, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	appendOps(t, l, 10)
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	relA := l.RegisterRetention(func() op.SI { return 6 })
	relB := l.RegisterRetention(func() op.SI { return 3 })
	defer relA()
	defer relB()
	if err := l.Truncate(9); err != nil {
		t.Fatal(err)
	}
	if got := l.FirstLSN(); got != 3 {
		t.Errorf("FirstLSN = %d, want the min hook horizon 3", got)
	}
	// A zero horizon means "no constraint", not "retain everything".
	relC := l.RegisterRetention(func() op.SI { return 0 })
	defer relC()
	if err := l.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if got := l.FirstLSN(); got != 3 {
		t.Errorf("FirstLSN = %d, want 3 (zero hook ignored, min still 3)", got)
	}
}

func TestAppendShippedAdoptsOriginAndEnforcesOrder(t *testing.T) {
	// Build a source log whose records we re-frame, as a sender would.
	src, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	appendOps(t, src, 6)
	if err := src.Force(); err != nil {
		t.Fatal(err)
	}
	var recs []*Record
	sc, err := src.Scan(1)
	if err != nil {
		t.Fatal(err)
	}
	for {
		rec, err := sc.Next()
		if err != nil {
			break
		}
		recs = append(recs, rec)
	}
	if len(recs) != 6 {
		t.Fatalf("scanned %d records", len(recs))
	}

	dst, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	// A fresh log adopts the stream origin — here mid-stream, as a standby
	// bootstrapped from a backup would.
	if err := dst.AppendShipped(recs[3]); err != nil {
		t.Fatalf("adopting first shipped record: %v", err)
	}
	if got := dst.FirstLSN(); got != recs[3].LSN {
		t.Errorf("FirstLSN = %d, want adopted origin %d", got, recs[3].LSN)
	}
	// A duplicate and a gap are both LSN errors; the stream is strict here
	// (dup/gap tolerance lives in the ship layer, which filters by LSN).
	if err := dst.AppendShipped(recs[3]); err == nil {
		t.Error("duplicate shipped record accepted")
	}
	if err := dst.AppendShipped(recs[5]); err == nil {
		t.Error("gapped shipped record accepted")
	}
	if err := dst.AppendShipped(recs[4]); err != nil {
		t.Fatalf("in-order shipped record: %v", err)
	}
	if err := dst.AppendShipped(&Record{Type: RecOperation, Op: op.NewPhysicalWrite("X", nil)}); err == nil ||
		!strings.Contains(err.Error(), "no LSN") {
		t.Errorf("LSN-less shipped record: %v", err)
	}

	// Shipped records force and scan like ordinary appends.
	if err := dst.Force(); err != nil {
		t.Fatal(err)
	}
	if got := dst.StableLSN(); got != recs[4].LSN {
		t.Errorf("StableLSN = %d, want %d", got, recs[4].LSN)
	}
	sc2, err := dst.Scan(dst.FirstLSN())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		rec, err := sc2.Next()
		if err != nil {
			break
		}
		if rec.LSN != recs[3+n].LSN {
			t.Errorf("scan %d: LSN %d, want %d", n, rec.LSN, recs[3+n].LSN)
		}
		n++
	}
	if n != 2 {
		t.Errorf("scanned %d shipped records, want 2", n)
	}

	// An adopted log that crashes before forcing reverts to virgin state and
	// can re-adopt (the bootstrapped-standby restart path).
	dev := NewMemDevice()
	fresh, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.AppendShipped(recs[2]); err != nil {
		t.Fatal(err)
	}
	fresh.Crash()
	fresh2, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh2.AppendShipped(recs[4]); err != nil {
		t.Errorf("re-adopting a different origin after crash: %v", err)
	}
}

func TestAppendShippedCountsStats(t *testing.T) {
	src, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	lsn := mustAppend(t, src, NewOpRecord(op.NewPhysicalWrite("X", []byte("abc"))))
	if err := src.Force(); err != nil {
		t.Fatal(err)
	}
	sc, err := src.Scan(lsn)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}

	dst, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.AppendShipped(rec); err != nil {
		t.Fatal(err)
	}
	st := dst.Stats()
	if st.Records[RecOperation] != 1 {
		t.Errorf("Records[op] = %d, want 1", st.Records[RecOperation])
	}
	if st.PayloadBytes[RecOperation] == 0 || st.BytesAppended == 0 {
		t.Errorf("payload accounting missing: %+v", st)
	}
}
