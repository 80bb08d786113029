package wal

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"logicallog/internal/frame"
	"logicallog/internal/op"
)

// sixRecordImage returns the device bytes of a log holding LSNs 1..6 of
// mixed record types, and the offset at which each frame ends.
func sixRecordImage(t testing.TB) (img []byte, ends []int) {
	t.Helper()
	dev := NewMemDevice()
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*Record{
		NewOpRecord(op.NewCreate("A", []byte("a"))),
		NewOpRecord(op.NewLogical(op.FuncCopy, []byte("B"), []op.ObjectID{"A"}, []op.ObjectID{"B"})),
		NewFlushRecord("A", 1),
		NewInstallRecord([]ObjectRSI{{ID: "B", RSI: 0}}, nil, []op.SI{2}),
		NewCheckpointRecord([]DirtyEntry{{ID: "A", RSI: 5}}),
		NewOpRecord(op.NewPhysicalWrite("A", []byte("aa"))),
	} {
		mustAppend(t, l, rec)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	img, _ = dev.ReadAll()
	for off := 0; off < len(img); {
		_, n, ok := frame.Next(img[off:])
		if !ok {
			t.Fatalf("image does not frame at %d", off)
		}
		off += n
		ends = append(ends, off)
	}
	if len(ends) != 6 {
		t.Fatalf("image holds %d frames", len(ends))
	}
	return img, ends
}

// TestReadersAgreeOnEndOfLog: every reader of a device decides where the
// durable log ends by the same rule.  On the image of a 6-record log cut at
// every length, with every bit of frame 3 flipped, and with frame 3 dropped,
// New's horizon, a full scan, Restart (with and without a crash first) and
// Truncate(2) all keep exactly the first k records, where k counts the whole
// frames before the damage; the records Restart returns are those k, as a
// scan of the trimmed log yields them.
func TestReadersAgreeOnEndOfLog(t *testing.T) {
	img, ends := sixRecordImage(t)
	start := func(i int) int { // offset of frame i (1-based)
		if i == 1 {
			return 0
		}
		return ends[i-2]
	}
	type damaged struct {
		name string
		data []byte
		k    int // records in the durable prefix
	}
	var cases []damaged
	for cut := 0; cut <= len(img); cut++ {
		k := 0
		for k < len(ends) && ends[k] <= cut {
			k++
		}
		cases = append(cases, damaged{"cut", img[:cut], k})
	}
	for bit := start(3) * 8; bit < ends[2]*8; bit++ {
		d := append([]byte(nil), img...)
		d[bit/8] ^= 1 << (bit % 8)
		cases = append(cases, damaged{"flip", d, 2})
	}
	dropped := append(append([]byte(nil), img[:start(3)]...), img[ends[2]:]...)
	cases = append(cases, damaged{"drop frame 3", dropped, 2})

	for _, c := range cases {
		prefix := c.data[:0]
		if c.k > 0 {
			prefix = img[:ends[c.k-1]]
		}
		open := func() (*Log, *MemDevice) {
			t.Helper()
			dev := NewMemDevice()
			if err := dev.Rewrite(c.data); err != nil {
				t.Fatal(err)
			}
			l, err := New(dev)
			if err != nil {
				t.Fatal(err)
			}
			return l, dev
		}

		l, _ := open()
		if got := int(l.NextLSN()) - 1; got != c.k {
			t.Fatalf("%s (%d bytes): New resumes after LSN %d, want %d", c.name, len(c.data), got, c.k)
		}
		sc, _ := l.Scan(0)
		recs, _ := sc.All()
		if len(recs) != c.k {
			t.Fatalf("%s (%d bytes): Scan yields %d records, want %d", c.name, len(c.data), len(recs), c.k)
		}

		// Restart straight after New (nothing buffered) and after a crash
		// keep the same prefix, and return exactly the records a scan of
		// the trimmed log yields.
		for _, crash := range []bool{false, true} {
			l, dev := open()
			if crash {
				l.Crash()
			}
			recs, err := l.Restart()
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := dev.ReadAll(); !bytes.Equal(got, prefix) || (c.k > 0 && int(l.NextLSN())-1 != c.k) {
				t.Fatalf("%s (%d bytes), crash=%v: Restart kept %d bytes and resumes after %d, want %d and %d",
					c.name, len(c.data), crash, len(got), l.NextLSN()-1, len(prefix), c.k)
			}
			sc, _ := l.Scan(l.FirstLSN())
			after, _ := sc.All()
			if len(recs) != c.k || !reflect.DeepEqual(recs, after) {
				t.Fatalf("%s (%d bytes), crash=%v: Restart returned %d records, a scan after it %d, want %d of each",
					c.name, len(c.data), crash, len(recs), len(after), c.k)
			}
		}

		l, dev := open()
		if err := l.Truncate(2); err != nil {
			t.Fatal(err)
		}
		var kept []byte
		if c.k >= 2 {
			kept = img[ends[0]:ends[c.k-1]]
		}
		if got, _ := dev.ReadAll(); !bytes.Equal(got, kept) {
			t.Fatalf("%s (%d bytes): Truncate(2) kept %d bytes, want %d", c.name, len(c.data), len(got), len(kept))
		}
		sc, _ = l.Scan(0)
		recs, _ = sc.All()
		if len(recs) != max(c.k-1, 0) || (len(recs) > 0 && recs[0].LSN != 2) {
			t.Fatalf("%s (%d bytes): after Truncate(2) the log holds %d records", c.name, len(c.data), len(recs))
		}
	}
}

// countingDevice counts full-device reads.
type countingDevice struct {
	Device
	reads int
}

func (d *countingDevice) ReadAll() ([]byte, error) {
	d.reads++
	return d.Device.ReadAll()
}

// TestRestartReadsDeviceOnce: Restart learns the surviving prefix's LSN
// range from the trim's own walk instead of reading the device again, on a
// clean device and on one with a torn tail to cut.
func TestRestartReadsDeviceOnce(t *testing.T) {
	for _, torn := range []bool{false, true} {
		dev := &countingDevice{Device: NewMemDevice()}
		l, err := New(dev)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			mustAppend(t, l, NewFlushRecord("X", op.SI(i+1)))
		}
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
		if torn {
			if err := dev.Append(Frame([]byte("torn"))[:6]); err != nil {
				t.Fatal(err)
			}
		}
		l.Crash()
		dev.reads = 0
		if _, err := l.Restart(); err != nil {
			t.Fatal(err)
		}
		if dev.reads != 1 {
			t.Errorf("torn=%v: Restart read the device %d times, want 1", torn, dev.reads)
		}
		if l.NextLSN() != 5 || l.FirstLSN() != 1 || l.StableLSN() != 4 {
			t.Errorf("torn=%v: after Restart first %d stable %d next %d", torn, l.FirstLSN(), l.StableLSN(), l.NextLSN())
		}
	}
}

// TestRestartReadsAfreshOnceTouched: the first Restart after New walks the
// bytes New read and leaves the device unread, unless the log was touched
// in between.  After an append, a shipped append, a force, a truncation or
// a crash, Restart reads the device and checks every frame afresh: a bit
// flipped in the last frame on the device after the touch is trimmed.
func TestRestartReadsAfreshOnceTouched(t *testing.T) {
	for _, c := range []struct {
		name  string
		touch func(*Log) error
	}{
		{"untouched", nil},
		{"append", func(l *Log) error { _, err := l.Append(NewFlushRecord("Y", 1)); return err }},
		{"shipped append", func(l *Log) error {
			rec := NewFlushRecord("Y", 1)
			rec.LSN = l.NextLSN()
			return l.AppendShipped(rec)
		}},
		{"force", func(l *Log) error { return l.Force() }},
		{"truncate", func(l *Log) error { return l.Truncate(1) }},
		{"crash", func(l *Log) error { l.Crash(); return nil }},
	} {
		dev := &countingDevice{Device: NewMemDevice()}
		w, err := New(dev)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			mustAppend(t, w, NewFlushRecord("X", op.SI(i+1)))
		}
		if err := w.Force(); err != nil {
			t.Fatal(err)
		}
		l, err := New(dev)
		if err != nil {
			t.Fatal(err)
		}
		wantReads, wantRecs := 0, 4
		if c.touch != nil {
			if err := c.touch(l); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			lent, _ := dev.ReadAll()
			img := bytes.Clone(lent)
			img[len(img)-1] ^= 1
			if err := dev.Rewrite(img); err != nil {
				t.Fatal(err)
			}
			wantReads, wantRecs = 1, 3
		}
		dev.reads = 0
		recs, err := l.Restart()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if dev.reads != wantReads || len(recs) != wantRecs {
			t.Errorf("%s: Restart read the device %d times and returned %d records, want %d and %d",
				c.name, dev.reads, len(recs), wantReads, wantRecs)
		}
	}
}

// TestRestartInternsNames: Restart's walk allocates each distinct name once.
// Over records that repeat four object names and one function name, every
// record naming an object shares one string for it, and a Restart allocates
// no string per record: the record, its operation and its id lists take one
// allocation, and the walk adds only a bounded number of its own.
func TestRestartInternsNames(t *testing.T) {
	const n = 1024
	dev := NewMemDevice()
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		x := op.ObjectID(fmt.Sprintf("object-%d", i%4))
		mustAppend(t, l, NewOpRecord(op.NewPhysioWrite(x, op.FuncAppend, []byte{byte(i)})))
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	recs, err := l.Restart()
	if err != nil || len(recs) != n {
		t.Fatalf("Restart = %d records, %v", len(recs), err)
	}
	first := map[string]*byte{}
	for _, rec := range recs {
		o := rec.Op
		for _, s := range []string{string(o.Func), string(o.ReadSet[0]), string(o.WriteSet[0])} {
			if p, ok := first[s]; !ok {
				first[s] = unsafe.StringData(s)
			} else if p != unsafe.StringData(s) {
				t.Fatalf("LSN %d: %q is a second copy of the name", rec.LSN, s)
			}
		}
	}
	if len(first) != 5 {
		t.Fatalf("records name %d distinct strings, want 5", len(first))
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := l.Restart(); err != nil {
			t.Fatal(err)
		}
	})
	// The walk's own: the scanner, the name table and its five strings, and
	// the growth of the record slice (about log2(n) times).
	if allocs > n+64 {
		t.Fatalf("Restart over %d records allocates %.0f times, want at most one per record and 64 more", n, allocs)
	}
}

// undecodableThird returns the six-record image with frame 3 replaced by a
// whole, checksummed frame whose header is the original's (a flush record,
// LSN 3) but whose body carries a trailing byte, so it does not decode.
func undecodableThird(t testing.TB) []byte {
	img, ends := sixRecordImage(t)
	payload, _, _ := frame.Next(img[ends[1]:])
	bad := frame.Append(append([]byte(nil), img[:ends[1]]...), append(append([]byte(nil), payload...), 0))
	return append(bad, img[ends[2]:]...)
}

// TestUndecodableBodyIsAnError: a checksummed frame whose header extends
// the log but whose body does not decode is corruption inside the durable
// log, not its end.  Restart and a scan through it return an error, and
// Restart leaves the device as it was instead of trimming that record and
// every acked record after it.  The readers that decode no body see the
// whole log: New resumes after LSN 6, a scan from LSN 4 yields 4..6, and
// Truncate(2) keeps frames 2..6.
func TestUndecodableBodyIsAnError(t *testing.T) {
	img := undecodableThird(t)
	open := func() (*Log, *MemDevice) {
		dev := NewMemDevice()
		if err := dev.Rewrite(img); err != nil {
			t.Fatal(err)
		}
		l, err := New(dev)
		if err != nil {
			t.Fatal(err)
		}
		return l, dev
	}
	for _, crash := range []bool{false, true} {
		l, dev := open()
		if l.NextLSN() != 7 {
			t.Fatalf("New resumes at LSN %d, want 7", l.NextLSN())
		}
		if crash {
			l.Crash()
		}
		if recs, err := l.Restart(); !errors.Is(err, errUndecodable) {
			t.Fatalf("crash=%v: Restart returned %d records, err %v; want errUndecodable", crash, len(recs), err)
		}
		if got, _ := dev.ReadAll(); !bytes.Equal(got, img) {
			t.Fatalf("crash=%v: Restart rewrote the device to %d bytes, want it untouched (%d)", crash, len(got), len(img))
		}
	}
	l, dev := open()
	sc, _ := l.Scan(0)
	if _, err := sc.All(); !errors.Is(err, errUndecodable) {
		t.Fatalf("Scan(0) = %v, want errUndecodable", err)
	}
	sc, _ = l.Scan(4)
	if recs, err := sc.All(); err != nil || len(recs) != 3 || recs[0].LSN != 4 {
		t.Fatalf("Scan(4) returned %d records, err %v; want LSNs 4..6", len(recs), err)
	}
	if err := l.Truncate(2); err != nil {
		t.Fatal(err)
	}
	_, n, _ := frame.Next(img)
	if got, _ := dev.ReadAll(); !bytes.Equal(got, img[n:]) {
		t.Fatalf("Truncate(2) kept %d bytes, want %d", len(got), len(img)-n)
	}
}

// TestNewDecodesNoBody: New learns the LSN horizon from frames and record
// headers alone, so opening an 8 192-record device decodes no record and
// allocates nothing per record: no more than opening a one-record device.
func TestNewDecodesNoBody(t *testing.T) {
	device := func(n int) *MemDevice {
		dev := NewMemDevice()
		l, err := New(dev)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite(op.ObjectID(fmt.Sprintf("obj%04d", i%64)), []byte("value"))))
		}
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
		return dev
	}
	allocs := func(dev *MemDevice) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := New(dev); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := device(1), device(8192)
	before := bodyDecodes.Load()
	l, err := New(big)
	if err != nil {
		t.Fatal(err)
	}
	if n := bodyDecodes.Load() - before; n != 0 || l.NextLSN() != 8193 {
		t.Fatalf("New decoded %d bodies and resumes at %d, want 0 and 8193", n, l.NextLSN())
	}
	// One allocation per record would add 8 191; the slack only absorbs
	// the runtime's own stray allocations during a run.
	if a, b := allocs(small), allocs(big); b > a+16 {
		t.Fatalf("New allocates %.0f times over 8 192 records, %.0f over one", b, a)
	}
}

// FuzzDeviceImage feeds arbitrary device bytes to New, Scan, Restart and
// Truncate.  None may panic, and all four keep the same trusted prefix (the
// frames and headers step accepts), unless a body in it does not decode:
// then Scan(0) and Restart both report it and Restart leaves the device
// untouched.  A Restart that walks New's bytes and one that reads the
// device afresh after a crash return the same records, rewrite, horizons
// and error.
func FuzzDeviceImage(f *testing.F) {
	img, ends := sixRecordImage(f)
	f.Add(img)
	f.Add(img[:ends[2]+3])
	f.Add(undecodableThird(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		trusted := &Scanner{data: data}
		var lsns []op.SI
		var starts []int // offset of each trusted frame
		for off := 0; trusted.step(); off = trusted.off {
			lsns = append(lsns, trusted.last)
			starts = append(starts, off)
		}
		prefix := data[:trusted.off]
		open := func() (*Log, *MemDevice) {
			dev := NewMemDevice()
			if err := dev.Rewrite(data); err != nil {
				t.Fatal(err)
			}
			l, err := New(dev)
			if err != nil {
				t.Fatal(err)
			}
			return l, dev
		}

		l, _ := open()
		if len(lsns) > 0 && (l.FirstLSN() != lsns[0] || l.StableLSN() != lsns[len(lsns)-1]) {
			t.Fatalf("New holds LSNs %d..%d, want %d..%d", l.FirstLSN(), l.StableLSN(), lsns[0], lsns[len(lsns)-1])
		}
		sc, _ := l.Scan(0)
		scanned, scanErr := sc.All()

		l, dev := open()
		recs, restartErr := l.Restart()
		got, _ := dev.ReadAll()
		// The Restart straight after New walked New's bytes.  A second log
		// over the same bytes, crashed first, reads and checks them afresh,
		// and must come to the same end.
		fresh, freshDev := open()
		fresh.Crash()
		freshRecs, freshErr := fresh.Restart()
		freshGot, _ := freshDev.ReadAll()
		if fmt.Sprint(restartErr) != fmt.Sprint(freshErr) || !reflect.DeepEqual(recs, freshRecs) || !bytes.Equal(got, freshGot) ||
			l.FirstLSN() != fresh.FirstLSN() || l.StableLSN() != fresh.StableLSN() || l.NextLSN() != fresh.NextLSN() {
			t.Fatalf("Restart on New's bytes: %d records, %d bytes, LSNs %d..%d next %d, err %v; "+
				"afresh: %d records, %d bytes, LSNs %d..%d next %d, err %v",
				len(recs), len(got), l.FirstLSN(), l.StableLSN(), l.NextLSN(), restartErr,
				len(freshRecs), len(freshGot), fresh.FirstLSN(), fresh.StableLSN(), fresh.NextLSN(), freshErr)
		}
		if (scanErr == nil) != (restartErr == nil) {
			t.Fatalf("Scan(0) err %v, Restart err %v: want both or neither", scanErr, restartErr)
		}
		if restartErr != nil {
			if !errors.Is(scanErr, errUndecodable) || !errors.Is(restartErr, errUndecodable) || !bytes.Equal(got, data) {
				t.Fatalf("on a body that does not decode: Scan(0) %v, Restart %v, device %d bytes of %d",
					scanErr, restartErr, len(got), len(data))
			}
		} else {
			if len(scanned) != len(lsns) || len(recs) != len(lsns) || !bytes.Equal(got, prefix) {
				t.Fatalf("Scan(0) kept %d records, Restart %d and %d bytes; the trusted prefix is %d records, %d bytes",
					len(scanned), len(recs), len(got), len(lsns), len(prefix))
			}
			for i, rec := range recs {
				if rec.LSN != lsns[i] || scanned[i].LSN != lsns[i] {
					t.Fatalf("record %d: Restart LSN %d, Scan LSN %d, want %d", i, rec.LSN, scanned[i].LSN, lsns[i])
				}
			}
		}

		l, dev = open()
		before := l.FirstLSN() + 1
		if err := l.Truncate(before); err != nil {
			t.Fatal(err)
		}
		var kept []byte
		for i, lsn := range lsns {
			if lsn >= before {
				kept = prefix[starts[i]:]
				break
			}
		}
		if got, _ := dev.ReadAll(); !bytes.Equal(got, kept) {
			t.Fatalf("Truncate kept %d bytes, want %d", len(got), len(kept))
		}
	})
}
