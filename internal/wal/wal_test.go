package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"logicallog/internal/frame"
	"logicallog/internal/op"
)

func mustAppend(t testing.TB, l *Log, rec *Record) op.SI {
	t.Helper()
	lsn, err := l.Append(rec)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return lsn
}

func TestRecordValidate(t *testing.T) {
	good := NewOpRecord(op.NewPhysicalWrite("X", []byte("v")))
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := []*Record{
		{Type: RecOperation},                                                       // no payload
		{Type: RecInstall, Flush: &FlushRecord{}},                                  // wrong payload
		{Type: RecInvalid, Flush: &FlushRecord{}},                                  // invalid type
		{Type: RecOperation, Op: &op.Operation{}},                                  // invalid op
		{Type: RecFlush, Flush: &FlushRecord{}, Op: op.NewPhysicalWrite("X", nil)}, // two payloads
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad record %d validated", i)
		}
	}
	if RecOperation.String() != "op" || RecCheckpoint.String() != "checkpoint" ||
		RecInstall.String() != "install" || RecFlush.String() != "flush" || RecordType(77).String() == "" {
		t.Error("RecordType.String wrong")
	}
}

func TestCodecRoundTripAllTypes(t *testing.T) {
	recs := []*Record{
		NewOpRecord(op.NewLogical(op.FuncXor, op.EncodeParams([]byte("Y"), []byte("X")),
			[]op.ObjectID{"X", "Y"}, []op.ObjectID{"Y"})),
		NewOpRecord(op.NewPhysicalWrite("X", []byte{0, 1, 2, 255})),
		NewOpRecord(op.NewIdentityWrite("obj/with/long-name", make([]byte, 1000))),
		NewOpRecord(op.NewDelete("A", "B")),
		NewInstallRecord(
			[]ObjectRSI{{ID: "Y", RSI: 9}},
			[]ObjectRSI{{ID: "X", RSI: 12}},
			[]op.SI{3, 1, 2},
		),
		NewFlushRecord("P", 42),
		NewCheckpointRecord([]DirtyEntry{{ID: "b", RSI: 2}, {ID: "a", RSI: 7}}),
	}
	for i, rec := range recs {
		rec.LSN = op.SI(i + 1)
		if rec.Op != nil {
			rec.Op.LSN = rec.LSN
		}
		payload, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("rec %d: %v", i, err)
		}
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("rec %d decode: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(rec), normalize(got)) {
			t.Errorf("rec %d round trip:\n want %+v\n got  %+v", i, rec, got)
		}
	}
}

// normalize clears fields the codec legitimately canonicalizes.
func normalize(r *Record) *Record {
	c := *r
	if r.Op != nil {
		o := r.Op.Clone()
		if len(o.Params) == 0 {
			o.Params = nil
		}
		c.Op = o
	}
	return &c
}

func TestInstallRecordCanonicalOrder(t *testing.T) {
	rec := NewInstallRecord(
		[]ObjectRSI{{ID: "z", RSI: 1}, {ID: "a", RSI: 2}},
		nil,
		[]op.SI{5, 3},
	)
	if rec.Install.Flushed[0].ID != "a" || rec.Install.Ops[0] != 3 {
		t.Error("install record not canonicalized")
	}
}

func TestCheckpointRedoStart(t *testing.T) {
	c := &CheckpointRecord{Dirty: []DirtyEntry{{ID: "a", RSI: 9}, {ID: "b", RSI: 4}}}
	if got := c.RedoStart(100); got != 4 {
		t.Errorf("RedoStart = %d", got)
	}
	empty := &CheckpointRecord{}
	if got := empty.RedoStart(100); got != 100 {
		t.Errorf("empty RedoStart = %d", got)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	rec := NewOpRecord(op.NewPhysicalWrite("X", []byte("hello")))
	rec.LSN = 1
	payload, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations must error, not panic.
	for cut := 1; cut < len(payload); cut++ {
		if _, err := DecodeRecord(payload[:cut]); err == nil {
			// Some prefixes can decode to a shorter valid record only if
			// trailing-byte detection fails; that must not happen.
			t.Errorf("truncated payload (len %d) decoded", cut)
		}
	}
	if _, err := DecodeRecord(append(payload, 0x01)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeRecord([]byte{99, 1}); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestDecodeRejectsAbsurdValueCount(t *testing.T) {
	// A payload claiming 2^27 logged values must be rejected before the
	// decoder sizes a map for them (a few bytes would otherwise reserve
	// gigabytes).
	e := &encoder{}
	e.u8(uint8(RecOperation))
	e.uvarint(1)
	e.u8(uint8(op.KindPhysicalWrite))
	e.str("")
	e.bytes(nil)
	e.ids(nil)
	e.ids([]op.ObjectID{"X"})
	e.ids(nil)
	e.uvarint(1 << 27)
	e.str("X")
	e.bytes([]byte("v"))
	if _, err := DecodeRecord(e.buf); err == nil {
		t.Fatal("decoded a record claiming 2^27 values")
	}
}

func TestDecodeRejectsValueOutsideWriteSet(t *testing.T) {
	// The encoder logs values of writeset objects only, so a payload carrying
	// another object's value is corrupt.  Accepting it would let a standby
	// re-encode the record into a frame whose value count no longer matches
	// its entries.
	e := &encoder{}
	e.u8(uint8(RecOperation))
	e.uvarint(1)
	e.u8(uint8(op.KindPhysicalWrite))
	e.str("")
	e.bytes(nil)
	e.ids(nil)
	e.ids([]op.ObjectID{"X"})
	e.ids(nil)
	e.uvarint(2)
	e.str("X")
	e.bytes([]byte("v"))
	e.str("Y")
	e.bytes([]byte("w"))
	if _, err := DecodeRecord(e.buf); err == nil {
		t.Fatal("decoded a value for an object outside the writeset")
	}
}

// valuePayload encodes a physical write of writeset whose value section
// claims count values and carries one per name, each named as given.
func valuePayload(writeset []op.ObjectID, count int, names ...op.ObjectID) []byte {
	e := &encoder{}
	e.u8(uint8(RecOperation))
	e.uvarint(1)
	e.u8(uint8(op.KindPhysicalWrite))
	e.str("")
	e.bytes(nil)
	e.ids(nil)
	e.ids(writeset)
	e.ids(nil)
	e.uvarint(uint64(count))
	for _, x := range names {
		e.str(string(x))
		e.bytes([]byte("v"))
	}
	return e.buf
}

// misplacedValues are value sections the encoder never writes: it logs no
// value or one per writeset object, in writeset order.
var misplacedValues = []struct {
	name    string
	payload []byte
}{
	{"out of writeset order", valuePayload([]op.ObjectID{"X", "Y"}, 2, "Y", "X")},
	{"duplicated name", valuePayload([]op.ObjectID{"X", "Y"}, 2, "X", "X")},
	{"name outside writeset", valuePayload([]op.ObjectID{"X", "Y"}, 2, "X", "Z")},
	{"short count", valuePayload([]op.ObjectID{"X", "Y"}, 1, "X")},
}

func TestDecodeRejectsMisplacedValues(t *testing.T) {
	for _, c := range misplacedValues {
		if rec, err := DecodeRecord(c.payload); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: decoded %+v, err %v; want errCorrupt", c.name, rec, err)
		}
	}
	if _, err := DecodeRecord(valuePayload([]op.ObjectID{"X", "Y"}, 2, "X", "Y")); err != nil {
		t.Errorf("values in writeset order: %v", err)
	}
}

// TestLogicalDeletesRejected: only a delete terminates objects, so a
// logical operation that carries Deletes is refused when it is encoded and
// when a payload carrying one is decoded.
func TestLogicalDeletesRejected(t *testing.T) {
	o := op.NewLogical(op.FuncCopy, []byte("X"), []op.ObjectID{"Y"}, []op.ObjectID{"X"})
	o.Deletes = []op.ObjectID{"X"}
	o.LSN = 1
	rec := &Record{Type: RecOperation, LSN: 1, Op: o}
	if _, err := EncodeRecord(rec); err == nil {
		t.Error("encoded a logical operation carrying Deletes")
	}
	e := &encoder{}
	encodePayload(e, rec)
	if got, err := DecodeRecord(e.buf); err == nil {
		t.Errorf("decoded a logical operation carrying Deletes: %s", got.Op)
	}
}

// FuzzDecodeRecord feeds arbitrary payloads to the record decoder the redo
// scan and the standby both run on untrusted bytes.  Property: it never
// panics, and an accepted record re-encodes to bytes that decode equal.
func FuzzDecodeRecord(f *testing.F) {
	seeds := []*Record{
		NewOpRecord(op.NewLogical(op.FuncXor, op.EncodeParams([]byte("a"), []byte("b")),
			[]op.ObjectID{"a", "b"}, []op.ObjectID{"b"})),
		NewOpRecord(op.NewPhysicalWrite("x", []byte("value"))),
		NewInstallRecord([]ObjectRSI{{ID: "x", RSI: 4}}, []ObjectRSI{{ID: "y", RSI: 9}}, []op.SI{1, 2}),
		NewFlushRecord("x", 3),
		NewCheckpointRecord([]DirtyEntry{{ID: "x", RSI: 2}}),
	}
	for i, rec := range seeds {
		rec.LSN = op.SI(i + 1)
		if rec.Op != nil {
			rec.Op.LSN = rec.LSN
		}
		payload, err := EncodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	for _, c := range misplacedValues {
		f.Add(c.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		again, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		back, err := DecodeRecord(again)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(rec, back) {
			t.Fatalf("round trip changed the record:\n first  %+v\n second %+v", rec, back)
		}
	})
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

// Frame frames payload as the device stores it.
func Frame(payload []byte) []byte { return frame.Append(nil, payload) }

// TestFrameUnframe: a record framed in place by AppendFrame is the device
// frame of its encoding, and reads back through the scanner's decode step;
// a checksum mismatch, a short frame and a truncated frame are refused.
func TestFrameUnframe(t *testing.T) {
	rec := NewOpRecord(op.NewPhysicalWrite("X", []byte("some payload")))
	rec.LSN = 7
	enc, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	framed := AppendFrame(nil, rec)
	if string(framed) != string(Frame(enc)) {
		t.Fatal("AppendFrame differs from the frame of EncodeRecord")
	}
	payload, n, ok := frame.Next(framed)
	if !ok || n != len(framed) || string(payload) != string(enc) {
		t.Fatalf("Next = %q, %d, %v", payload, n, ok)
	}
	got, err := DecodeRecord(payload)
	if err != nil || got.LSN != 7 || got.Type != RecOperation {
		t.Fatalf("DecodeRecord = %+v, %v", got, err)
	}
	// CRC mismatch.
	bad := append([]byte(nil), framed...)
	bad[len(bad)-1] ^= 0xFF
	if _, _, ok := frame.Next(bad); ok {
		t.Error("corrupt frame accepted")
	}
	// Short frame.
	if _, _, ok := frame.Next(framed[:5]); ok {
		t.Error("short frame accepted")
	}
	if _, _, ok := frame.Next(framed[:len(framed)-1]); ok {
		t.Error("truncated frame accepted")
	}
}

func TestAppendForceScan(t *testing.T) {
	l, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	o1 := op.NewPhysicalWrite("X", []byte("1"))
	l1 := mustAppend(t, l, NewOpRecord(o1))
	if l1 != 1 || o1.LSN != 1 {
		t.Errorf("first LSN = %d, op LSN = %d", l1, o1.LSN)
	}
	l2 := mustAppend(t, l, NewFlushRecord("X", l1))
	if l2 != 2 {
		t.Errorf("second LSN = %d", l2)
	}
	if l.StableLSN() != 0 {
		t.Error("records durable before force")
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if l.StableLSN() != 2 {
		t.Errorf("StableLSN = %d", l.StableLSN())
	}
	sc, err := l.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil || len(recs) != 2 {
		t.Fatalf("scan: %d records, %v", len(recs), err)
	}
	if recs[0].Type != RecOperation || recs[1].Type != RecFlush {
		t.Error("scan order/type wrong")
	}
	// Scan from the middle.
	sc, _ = l.Scan(2)
	recs, _ = sc.All()
	if len(recs) != 1 || recs[0].LSN != 2 {
		t.Errorf("Scan(2) = %v", recs)
	}
}

func TestForceThroughPartial(t *testing.T) {
	l, _ := New(NewMemDevice())
	for i := 0; i < 5; i++ {
		mustAppend(t, l, NewFlushRecord("X", op.SI(i+1)))
	}
	if err := l.ForceThrough(3); err != nil {
		t.Fatal(err)
	}
	if l.StableLSN() != 3 {
		t.Errorf("StableLSN = %d, want 3", l.StableLSN())
	}
	// Idempotent / no-op force.
	if err := l.ForceThrough(2); err != nil {
		t.Fatal(err)
	}
	if l.StableLSN() != 3 {
		t.Error("ForceThrough went backwards")
	}
	lost := l.Crash()
	if lost != 2 {
		t.Errorf("Crash lost %d records, want 2", lost)
	}
	sc, _ := l.Scan(0)
	recs, _ := sc.All()
	if len(recs) != 3 {
		t.Errorf("after crash: %d durable records, want 3", len(recs))
	}
}

func TestCrashLosesTailAndRestartResumes(t *testing.T) {
	dev := NewMemDevice()
	l, _ := New(dev)
	mustAppend(t, l, NewFlushRecord("A", 1))
	mustAppend(t, l, NewFlushRecord("B", 2))
	if err := l.ForceThrough(1); err != nil {
		t.Fatal(err)
	}
	l.Crash()

	// Restart over the same device.
	l2, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	if l2.StableLSN() != 1 {
		t.Errorf("restart StableLSN = %d", l2.StableLSN())
	}
	// New appends continue after the durable horizon.
	lsn := mustAppend(t, l2, NewFlushRecord("C", 3))
	if lsn != 2 {
		t.Errorf("restart next LSN = %d, want 2", lsn)
	}
}

// Torn-tail behavior is covered exhaustively in fault_test.go (package
// wal_test), which injects tears through the internal/fault layer instead
// of a device-specific corruption hook.

func TestTruncate(t *testing.T) {
	l, _ := New(NewMemDevice())
	for i := 0; i < 6; i++ {
		mustAppend(t, l, NewFlushRecord("X", op.SI(i)))
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if l.FirstLSN() != 4 {
		t.Errorf("FirstLSN = %d", l.FirstLSN())
	}
	sc, _ := l.Scan(0)
	recs, _ := sc.All()
	if len(recs) != 3 || recs[0].LSN != 4 {
		t.Errorf("after truncate: %v", recs)
	}
	// Appends still work after truncation.
	lsn := mustAppend(t, l, NewFlushRecord("Y", 9))
	if lsn != 7 {
		t.Errorf("post-truncate LSN = %d", lsn)
	}
}

func TestStatsAccounting(t *testing.T) {
	l, _ := New(NewMemDevice())
	big := make([]byte, 4096)
	mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite("X", big)))
	mustAppend(t, l, NewOpRecord(op.NewLogical(op.FuncCopy, []byte("X"), []op.ObjectID{"Y"}, []op.ObjectID{"X"})))
	st := l.Stats()
	if st.Records[RecOperation] != 2 {
		t.Errorf("Records = %v", st.Records)
	}
	if st.ValueBytes != 4096 {
		t.Errorf("ValueBytes = %d", st.ValueBytes)
	}
	phys := st.OpPayloadBytes[op.KindPhysicalWrite]
	logi := st.OpPayloadBytes[op.KindLogical]
	if phys < 4096 {
		t.Errorf("physical payload = %d, must include the value", phys)
	}
	if logi >= 128 {
		t.Errorf("logical payload = %d, must be id-sized", logi)
	}
	if st.TotalOpPayloadBytes() != phys+logi {
		t.Error("TotalOpPayloadBytes mismatch")
	}
	if st.BytesAppended <= st.TotalOpPayloadBytes() {
		t.Error("BytesAppended must include framing")
	}
	l.ResetStats()
	if l.Stats().BytesAppended != 0 {
		t.Error("ResetStats failed")
	}
}

func TestFileDevice(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.wal")
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, NewFlushRecord("A", 1))
	mustAppend(t, l, NewFlushRecord("B", 2))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(2); err != nil {
		t.Fatal(err)
	}
	// The rewrite leaves no temporary file behind, and the device appends
	// to the rewritten file, after the kept record.
	if names, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(names) != 0 {
		t.Errorf("Truncate left %v", names)
	}
	mustAppend(t, l, NewFlushRecord("C", 3))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify contents survive.
	dev2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	l2, err := New(dev2)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := l2.Scan(0)
	recs, _ := sc.All()
	if len(recs) != 2 || recs[0].LSN != 2 || recs[1].LSN != 3 || recs[1].Flush.Object != "C" {
		t.Errorf("file device reopen: %v", recs)
	}
	sz, err := dev2.Size()
	if err != nil || sz == 0 {
		t.Errorf("Size = %d, %v", sz, err)
	}
}

func TestScannerEOFSemantics(t *testing.T) {
	l, _ := New(NewMemDevice())
	sc, _ := l.Scan(0)
	if _, err := sc.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("empty scan err = %v", err)
	}
}

func TestCodecQuickOpRecords(t *testing.T) {
	// Property: arbitrary physical writes round-trip through the codec.
	f := func(name string, value []byte, lsn uint32) bool {
		if name == "" {
			name = "x"
		}
		rec := NewOpRecord(op.NewPhysicalWrite(op.ObjectID(name), value))
		rec.LSN = op.SI(lsn) + 1
		rec.Op.LSN = rec.LSN
		payload, err := EncodeRecord(rec)
		if err != nil {
			return false
		}
		got, err := DecodeRecord(payload)
		if err != nil {
			return false
		}
		return got.LSN == rec.LSN &&
			got.Op.Kind == op.KindPhysicalWrite &&
			got.Op.WriteSet[0] == op.ObjectID(name) &&
			op.Equal(got.Op.Values[0], value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandomCrashRestartConsistency(t *testing.T) {
	// Property: after any force/crash interleaving, the durable log is a
	// prefix of what was appended, ends at the last forced LSN, and
	// restarting resumes LSN assignment correctly.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		dev := NewMemDevice()
		l, _ := New(dev)
		appended := 0
		forced := op.SI(0)
		for i := 0; i < 50; i++ {
			switch rng.Intn(5) {
			case 0:
				if err := l.Force(); err != nil {
					t.Fatal(err)
				}
				forced = op.SI(appended)
			case 1:
				if appended > 0 {
					upTo := op.SI(1 + rng.Intn(appended))
					if err := l.ForceThrough(upTo); err != nil {
						t.Fatal(err)
					}
					if upTo > forced {
						forced = upTo
					}
				}
			default:
				mustAppend(t, l, NewFlushRecord("X", op.SI(i)))
				appended++
			}
		}
		l.Crash()
		l2, err := New(dev)
		if err != nil {
			t.Fatal(err)
		}
		if l2.StableLSN() != forced {
			t.Fatalf("trial %d: StableLSN = %d, want %d", trial, l2.StableLSN(), forced)
		}
		sc, _ := l2.Scan(0)
		recs, _ := sc.All()
		if len(recs) != int(forced) {
			t.Fatalf("trial %d: %d durable records, want %d", trial, len(recs), forced)
		}
		for i, rec := range recs {
			if rec.LSN != op.SI(i+1) {
				t.Fatalf("trial %d: record %d has LSN %d", trial, i, rec.LSN)
			}
		}
	}
}

// TestRestartRecordsOutliveDeviceChanges: a memory device lends its bytes to
// every scan, and the records Restart returns alias them.  A Truncate,
// appends and a Rewrite after the Restart must leave every returned record
// byte-identical.
func TestRestartRecordsOutliveDeviceChanges(t *testing.T) {
	dev := NewMemDevice()
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	write := func(i int, fill byte) {
		mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite(op.ObjectID(fmt.Sprintf("x%d", i)), bytes.Repeat([]byte{fill}, 32))))
	}
	for i := 0; i < 8; i++ {
		write(i, byte('a'+i))
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	recs, err := l.Restart()
	if err != nil || len(recs) != 8 {
		t.Fatalf("Restart = %d records, %v", len(recs), err)
	}
	want := make([][]byte, len(recs))
	for i, rec := range recs {
		if want[i], err = EncodeRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	check := func(after string) {
		t.Helper()
		for i, rec := range recs {
			if got, err := EncodeRecord(rec); err != nil || !bytes.Equal(got, want[i]) {
				t.Fatalf("after %s, record %d reads %x (%v), want %x", after, rec.LSN, got, err, want[i])
			}
		}
	}

	if err := l.Truncate(5); err != nil {
		t.Fatal(err)
	}
	check("Truncate")
	for i := 0; i < 8; i++ {
		write(i, 'z')
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	check("appends")
	size, err := dev.Size()
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Rewrite(bytes.Repeat([]byte{0xff}, int(size))); err != nil {
		t.Fatal(err)
	}
	check("Rewrite")
}
