package server

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"logicallog/internal/frame"
)

// The wire framing is internal/frame bounded by MaxFrame; these tests pin
// what a connection sees of it.
func writeFrame(w io.Writer, payload []byte) error {
	return frame.Write(w, append(make([]byte, frame.Overhead, frame.Overhead+len(payload)), payload...), MaxFrame)
}
func readFrame(r io.Reader) ([]byte, error) { return frame.Read(r, MaxFrame) }

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte("abc"), 1000),
		make([]byte, MaxFrame),
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(got), len(p))
		}
	}
	if _, err := readFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: %v, want EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	if err := writeFrame(io.Discard, make([]byte, MaxFrame+1)); !errors.Is(err, frame.ErrTooLarge) {
		t.Fatalf("write oversized: %v", err)
	}
	// A hostile length prefix is rejected before allocation.
	raw := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, frame.ErrTooLarge) {
		t.Fatalf("read oversized: %v", err)
	}
}

// TestFrameTornTail mirrors the WAL torn-tail rule: a frame cut at any
// point before its last byte yields io.ErrUnexpectedEOF (no partial payload
// is ever surfaced); a cut at a frame boundary is a clean EOF.
func TestFrameTornTail(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("the torn frame carries no information")
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, err := readFrame(bytes.NewReader(full[:cut]))
		switch {
		case cut == 0:
			if !errors.Is(err, io.EOF) {
				t.Fatalf("cut %d: %v, want EOF", cut, err)
			}
		default:
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut %d: %v, want ErrUnexpectedEOF", cut, err)
			}
		}
	}
}

// TestFrameCorruption: every single-byte flip anywhere in the frame is
// detected — the payload is never silently misread.
func TestFrameCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("checksummed payload")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for i := range full {
		for _, flip := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), full...)
			mut[i] ^= flip
			got, err := readFrame(bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("flip byte %d (%#x): corrupted frame read back as %q", i, flip, got)
			}
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpGet, Key: []byte("k")},
		{ID: 3, Op: OpPut, Key: []byte("key"), Val: []byte("value with \x00 bytes")},
		{ID: 4, Op: OpDelete, Key: []byte("")},
		{ID: 5, Op: OpScan, Lo: []byte("a"), Hi: []byte("z"), N: 17},
		{ID: 6, Op: OpScan, Lo: nil, Hi: nil, N: 0},
		{ID: 7, Op: OpCheck},
		{ID: 8, Op: OpStats},
	}
	for _, req := range reqs {
		p, err := appendRequest(nil, req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		got, err := DecodeRequest(p)
		if err != nil {
			t.Fatalf("%+v: decode: %v", req, err)
		}
		if got.ID != req.ID || got.Op != req.Op ||
			!bytes.Equal(got.Key, req.Key) || !bytes.Equal(got.Val, req.Val) ||
			!bytes.Equal(got.Lo, req.Lo) || !bytes.Equal(got.Hi, req.Hi) || got.N != req.N {
			t.Fatalf("round trip: %+v -> %+v", req, got)
		}
	}
}

func TestScanChunkRoundTrip(t *testing.T) {
	cases := []struct {
		pairs []ScanPair
		more  bool
	}{
		{nil, false},
		{nil, true},
		{[]ScanPair{{Key: []byte("a"), Val: nil}}, false},
		{[]ScanPair{{Key: []byte("a"), Val: []byte("1")}, {Key: []byte("bb"), Val: bytes.Repeat([]byte("v"), 5000)}}, true},
	}
	for i, c := range cases {
		body := appendScanChunk(nil, c.pairs, c.more)
		pairs, more, err := decodeScanChunk(body)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if more != c.more || len(pairs) != len(c.pairs) {
			t.Fatalf("case %d: %d pairs more=%v, want %d more=%v", i, len(pairs), more, len(c.pairs), c.more)
		}
		for j := range pairs {
			if !bytes.Equal(pairs[j].Key, c.pairs[j].Key) || !bytes.Equal(pairs[j].Val, c.pairs[j].Val) {
				t.Fatalf("case %d pair %d diverges", i, j)
			}
		}
	}
}

// FuzzDecodeRequest: arbitrary bytes never panic the decoder, and whatever
// decodes re-encodes to an equivalent request.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []*Request{
		{ID: 9, Op: OpPut, Key: []byte("key"), Val: []byte("val")},
		{ID: 10, Op: OpScan, Lo: []byte("a"), Hi: []byte("b"), N: 3},
		{ID: 11, Op: OpGet, Key: []byte("zz")},
	}
	for _, req := range seeds {
		p, err := appendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		p, err := appendRequest(nil, req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		again, err := DecodeRequest(p)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if again.ID != req.ID || again.Op != req.Op || !bytes.Equal(again.Key, req.Key) ||
			!bytes.Equal(again.Val, req.Val) || !bytes.Equal(again.Lo, req.Lo) ||
			!bytes.Equal(again.Hi, req.Hi) || again.N != req.N {
			t.Fatalf("decode/encode/decode not stable: %+v vs %+v", req, again)
		}
	})
}

// FuzzDecodeScanChunk: arbitrary scan bodies never panic.
func FuzzDecodeScanChunk(f *testing.F) {
	f.Add(appendScanChunk(nil, nil, false))
	f.Add(appendScanChunk(nil, []ScanPair{{Key: []byte("k"), Val: []byte("v")}}, true))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pairs, more, err := decodeScanChunk(data)
		if err != nil {
			return
		}
		body := appendScanChunk(nil, pairs, more)
		p2, m2, err := decodeScanChunk(body)
		if err != nil || m2 != more || len(p2) != len(pairs) {
			t.Fatalf("re-encode not stable: %v", err)
		}
	})
}
