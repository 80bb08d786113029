package wal

import (
	"bytes"
	"math/rand"
	"testing"

	"logicallog/internal/op"
)

// TestDecodeNeverPanics feeds random byte soup and random mutations of valid
// payloads through the decoder: corruption must surface as errors, never as
// panics or accepted garbage with trailing bytes.
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("decoder panicked: %v", r)
		}
	}()
	// Pure noise.
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		rec, err := DecodeRecord(buf)
		if err == nil {
			if verr := rec.Validate(); verr != nil {
				t.Fatalf("decoder accepted noise that fails validation: %v", verr)
			}
		}
	}
	// Mutated valid payloads.
	seeds := []*Record{
		NewOpRecord(op.NewLogical(op.FuncXor, op.EncodeParams([]byte("a"), []byte("b")),
			[]op.ObjectID{"a", "b"}, []op.ObjectID{"b"})),
		NewInstallRecord([]ObjectRSI{{ID: "x", RSI: 4}}, []ObjectRSI{{ID: "y", RSI: 9}}, []op.SI{1, 2}),
		NewCheckpointRecord([]DirtyEntry{{ID: "x", RSI: 2}}),
		NewFlushRecord("x", 3),
	}
	for _, seed := range seeds {
		seed.LSN = 1
		if seed.Op != nil {
			seed.Op.LSN = 1
		}
		payload, err := EncodeRecord(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			mut := append([]byte(nil), payload...)
			for flips := rng.Intn(3) + 1; flips > 0; flips-- {
				mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			}
			rec, err := DecodeRecord(mut)
			if err == nil {
				// A surviving mutation must still be a structurally valid
				// record (CRC framing catches these in practice anyway).
				if verr := rec.Validate(); verr != nil {
					t.Fatalf("mutated payload decoded into invalid record: %v", verr)
				}
			}
		}
	}
}

// TestScanThroughCorruptMiddle checks that a frame corrupted in the middle
// of the log terminates the scan at the corruption point (torn-tail
// semantics), never yielding later records out of order.
func TestScanThroughCorruptMiddle(t *testing.T) {
	dev := NewMemDevice()
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(NewFlushRecord("x", op.SI(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	// ReadAll lends the device's bytes: flip a byte of a copy.
	lent, _ := dev.ReadAll()
	data := bytes.Clone(lent)
	// Flip a byte roughly in the middle (inside record 3's frame).
	data[len(data)/2] ^= 0xFF
	dev.Rewrite(data)

	sc, err := l.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) >= 5 {
		t.Fatalf("scan returned %d records across corruption", len(recs))
	}
	for i, rec := range recs {
		if rec.LSN != op.SI(i+1) {
			t.Errorf("record %d has LSN %d", i, rec.LSN)
		}
	}
}
