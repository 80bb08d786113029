package frame

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// testMax is the bound the tests pass to Write and Read (the server's
// MaxFrame).
const testMax = 1 << 20

// TestFrame pins the codec's decisions on every frame it is given: both
// readers return the payload of a whole frame and agree on the length; a
// frame cut at any point is torn (Next rejects it, Read reports io.EOF at
// the boundary and io.ErrUnexpectedEOF inside the frame, never a partial
// payload); every single-bit flip is caught by both readers.
func TestFrame(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		mutate  bool // cut and flip every position (small frames only)
	}{
		{"nil", nil, true},
		{"empty", []byte{}, true},
		{"one byte", []byte("x"), true},
		{"text", []byte("some payload"), true},
		{"3000 bytes", bytes.Repeat([]byte("abc"), 1000), true},
		{"at the bound", make([]byte, testMax), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			full := Append(nil, c.payload)
			if len(full) != Overhead+len(c.payload) {
				t.Fatalf("frame is %d bytes, want %d", len(full), Overhead+len(c.payload))
			}
			payload, n, ok := Next(full)
			if !ok || n != len(full) || !bytes.Equal(payload, c.payload) {
				t.Fatalf("Next = %d bytes, n %d, ok %v", len(payload), n, ok)
			}
			got, err := Read(bytes.NewReader(full), testMax)
			if err != nil || !bytes.Equal(got, c.payload) {
				t.Fatalf("Read = %d bytes, %v", len(got), err)
			}
			// Seal over a reserved header yields the same bytes.
			sealed := append(make([]byte, Overhead), c.payload...)
			Seal(sealed, 0)
			if !bytes.Equal(sealed, full) {
				t.Fatal("Seal differs from Append")
			}
			if !c.mutate {
				return
			}
			for cut := 0; cut < len(full); cut++ {
				if _, _, ok := Next(full[:cut]); ok {
					t.Fatalf("cut %d: Next accepted a torn frame", cut)
				}
				_, err := Read(bytes.NewReader(full[:cut]), testMax)
				want := io.ErrUnexpectedEOF
				if cut == 0 {
					want = io.EOF
				}
				if !errors.Is(err, want) {
					t.Fatalf("cut %d: Read = %v, want %v", cut, err, want)
				}
			}
			for bit := 0; bit < len(full)*8; bit++ {
				mut := append([]byte(nil), full...)
				mut[bit/8] ^= 1 << (bit % 8)
				if p, _, ok := Next(mut); ok {
					t.Fatalf("bit %d: Next read a corrupted frame as %q", bit, p)
				}
				_, err := Read(bytes.NewReader(mut), testMax)
				if err == nil {
					t.Fatalf("bit %d: Read accepted a corrupted frame", bit)
				}
				// Past the length field, a flip is a checksum mismatch.
				if bit >= 32 && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("bit %d: Read = %v, want ErrCorrupt", bit, err)
				}
			}
		})
	}
	// Back to back, each frame built in place and sealed by one Write call
	// (so writers sharing a connection cannot interleave inside one), read
	// back in order, then io.EOF at the boundary.
	t.Run("stream", func(t *testing.T) {
		payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte("abc"), 1000), make([]byte, testMax)}
		w := &countingWriter{}
		for _, p := range payloads {
			if err := Write(w, append(make([]byte, Overhead), p...), testMax); err != nil {
				t.Fatal(err)
			}
		}
		if w.calls != len(payloads) {
			t.Fatalf("%d Write calls for %d frames", w.calls, len(payloads))
		}
		r := bytes.NewReader(w.buf.Bytes())
		rest := w.buf.Bytes()
		for i, p := range payloads {
			got, err := Read(r, testMax)
			if err != nil || !bytes.Equal(got, p) {
				t.Fatalf("frame %d: Read = %d bytes, %v; want %d", i, len(got), err, len(p))
			}
			got, n, ok := Next(rest)
			if !ok || !bytes.Equal(got, p) {
				t.Fatalf("frame %d: Next = %d bytes, ok %v; want %d", i, len(got), ok, len(p))
			}
			rest = rest[n:]
		}
		if _, err := Read(r, testMax); !errors.Is(err, io.EOF) {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes left after the last frame", len(rest))
		}
	})
	// The bound holds in both directions, and a hostile length prefix is
	// refused before anything is allocated for it.
	t.Run("too large", func(t *testing.T) {
		if err := Write(io.Discard, make([]byte, Overhead+testMax+1), testMax); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("Write oversized: %v", err)
		}
		raw := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
		if _, err := Read(bytes.NewReader(raw), testMax); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("Read oversized: %v", err)
		}
		if _, _, ok := Next(raw); ok {
			t.Fatal("Next accepted a length prefix past the data")
		}
	})
}

type countingWriter struct {
	buf   bytes.Buffer
	calls int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	return w.buf.Write(p)
}

// FuzzFrame: arbitrary bytes never panic either reader; a frame Next
// accepts is exactly what Append builds from its payload, and Read agrees
// with Next on every input.
func FuzzFrame(f *testing.F) {
	f.Add(Append(nil, []byte("payload")))
	f.Add(Append(nil, nil))
	f.Add(append(Append(nil, []byte("a")), Append(nil, []byte("bc"))...))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, ok := Next(data)
		got, err := Read(bytes.NewReader(data), len(data))
		if !ok {
			if err == nil {
				t.Fatalf("Read accepted %d bytes Next rejects", len(got))
			}
			return
		}
		if !bytes.Equal(Append(nil, payload), data[:n]) {
			t.Fatal("accepted frame differs from Append of its payload")
		}
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Read = %d bytes, %v; Next = %d bytes", len(got), err, len(payload))
		}
	})
}
