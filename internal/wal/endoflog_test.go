package wal

import (
	"bytes"
	"testing"

	"logicallog/internal/frame"
	"logicallog/internal/op"
)

// sixRecordImage returns the device bytes of a log holding LSNs 1..6 of
// mixed record types, and the offset at which each frame ends.
func sixRecordImage(t *testing.T) (img []byte, ends []int) {
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
// New's horizon, a full scan, Restart, TrimTornTail and Truncate(2) all keep
// exactly the first k records, where k counts the whole frames before the
// damage.
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

		l, dev := open()
		if _, err := l.TrimTornTail(); err != nil {
			t.Fatal(err)
		}
		if got, _ := dev.ReadAll(); !bytes.Equal(got, prefix) {
			t.Fatalf("%s (%d bytes): TrimTornTail kept %d bytes, want %d", c.name, len(c.data), len(got), len(prefix))
		}

		l, dev = open()
		l.Crash()
		if err := l.Restart(); err != nil {
			t.Fatal(err)
		}
		if got, _ := dev.ReadAll(); !bytes.Equal(got, prefix) || (c.k > 0 && int(l.NextLSN())-1 != c.k) {
			t.Fatalf("%s (%d bytes): Restart kept %d bytes and resumes after %d, want %d and %d",
				c.name, len(c.data), len(got), l.NextLSN()-1, len(prefix), c.k)
		}

		l, dev = open()
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
		if err := l.Restart(); err != nil {
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
