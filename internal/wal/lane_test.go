package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"logicallog/internal/op"
)

// genRecord returns the next record of the deterministic mixed workload used
// by the byte-identity test.  A fresh Record is built per call so each run
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

// forceAtRandom forces a random prefix of the log about once every 20 calls.
func forceAtRandom(t *testing.T, l *Log, rng *rand.Rand, appended op.SI) {
	t.Helper()
	if rng.Intn(20) != 0 {
		return
	}
	if err := l.ForceThrough(op.SI(1 + rng.Int63n(int64(appended)))); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDurableBytesIdentical(t *testing.T) {
	// The durable byte stream is exactly the appended records' frames in LSN
	// order, however the group-commit leader cuts the lane at force time, and
	// a standby replaying those records through AppendShipped writes the same
	// bytes.
	rng := rand.New(rand.NewSource(7))
	keys := []op.ObjectID{"K0", "K1", "K2", "K3"}
	dev := NewMemDevice()
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 200; i++ {
		rec := genRecord(rng, keys)
		lsn := mustAppend(t, l, rec)
		payload, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Frame(payload)...)
		forceAtRandom(t, l, rng, lsn)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	got, err := dev.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("durable log differs from the appended frames (%d vs %d bytes)", len(got), len(want))
	}

	sc, err := l.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	standbyDev := NewMemDevice()
	standby, err := New(standbyDev)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := standby.AppendShipped(rec); err != nil {
			t.Fatal(err)
		}
		forceAtRandom(t, standby, rng, rec.LSN)
	}
	if err := standby.Force(); err != nil {
		t.Fatal(err)
	}
	if shipped, _ := standbyDev.ReadAll(); !bytes.Equal(shipped, want) {
		t.Fatalf("shipped log differs from the primary's (%d vs %d bytes)", len(shipped), len(want))
	}
}

func TestStreamConcurrentAppendsStayDense(t *testing.T) {
	// Appenders race one forcer; then the machine crashes.  The durable log
	// must be a dense LSN prefix in which every record carries exactly what
	// its appender wrote under that LSN, the crash must lose exactly the
	// unforced suffix, and restart must reuse the lost LSNs.
	l, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 200
	type write struct {
		key op.ObjectID
		val []byte
	}
	var mu sync.Mutex
	written := make(map[op.SI]write)
	stop := make(chan struct{})
	forcerDone := make(chan struct{})
	go func() {
		defer close(forcerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.Force(); err != nil {
				t.Errorf("force: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := op.ObjectID(fmt.Sprintf("g%d", g))
				if i%3 == 0 {
					key = "shared"
				}
				val := []byte{byte(g), byte(i)}
				lsn, err := l.AppendOp(op.NewPhysicalWrite(key, val))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				written[lsn] = write{key, val}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-forcerDone

	stable := l.StableLSN()
	lost := l.Crash()
	if got := int(stable) + lost; got != goroutines*perG {
		t.Fatalf("stable %d + lost %d = %d records, want %d", stable, lost, got, goroutines*perG)
	}
	sc, err := l.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != int(stable) {
		t.Fatalf("durable records = %d, want StableLSN %d", len(recs), stable)
	}
	for i, rec := range recs {
		if rec.LSN != op.SI(i+1) {
			t.Fatalf("record %d has LSN %d: durable log is not dense", i, rec.LSN)
		}
		w := written[rec.LSN]
		if rec.Type != RecOperation || rec.Op.WriteSet[0] != w.key || !op.Equal(rec.Op.Values[w.key], w.val) {
			t.Fatalf("LSN %d holds %+v, want the write of %v to %q", rec.LSN, rec, w.val, w.key)
		}
	}
	if _, err := l.Restart(); err != nil {
		t.Fatal(err)
	}
	// The lost LSNs are reused — unless the forcer never got to run before
	// the appenders finished: an empty device keeps the horizon (Restart).
	want := stable + 1
	if stable == 0 {
		want = goroutines*perG + 1
	}
	if lsn := mustAppend(t, l, NewFlushRecord("shared", 1)); lsn != want {
		t.Errorf("post-crash LSN = %d, want %d", lsn, want)
	}
}

// discardDevice acknowledges every append and keeps nothing, so an
// allocation count sees only the log's own work.
type discardDevice struct{ *MemDevice }

func (discardDevice) Append([]byte) error { return nil }

func TestSteadyStateAppendAllocatesNothing(t *testing.T) {
	// Once the tail has grown to its working size, appending records and
	// forcing them allocates nothing: frames are encoded in place and the
	// device writes straight from the tail.  The partial ForceThrough
	// leaves half of every round in the tail, so the copy-down is covered.
	recs := make([]*Record, 8)
	for i := range recs {
		recs[i] = NewOpRecord(op.NewPhysicalWrite(op.ObjectID(fmt.Sprintf("k%d", i)), make([]byte, 100)))
	}
	for _, tc := range []struct {
		name  string
		force func(l *Log, first op.SI) error
	}{
		{"Force", func(l *Log, _ op.SI) error { return l.Force() }},
		{"partial ForceThrough", func(l *Log, first op.SI) error { return l.ForceThrough(first + 3) }},
	} {
		l, err := New(discardDevice{NewMemDevice()})
		if err != nil {
			t.Fatal(err)
		}
		round := func() {
			first := l.NextLSN()
			for _, rec := range recs {
				if _, err := l.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.force(l, first); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			round()
		}
		if n := testing.AllocsPerRun(100, round); n != 0 {
			t.Errorf("%s: %v allocations per round of %d appends, want 0", tc.name, n, len(recs))
		}
	}
}
