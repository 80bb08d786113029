package op

import (
	"bytes"
	"testing"
)

// xorReference is the per-byte loop builtinXor used before it XORed whole
// repetitions of other: self XOR other, other repeated cyclically, empty
// other a no-op.  The kernel must match it byte for byte.
func xorReference(sv, ov []byte) []byte {
	out := append([]byte(nil), sv...)
	if len(ov) > 0 {
		for i := range out {
			out[i] ^= ov[i%len(ov)]
		}
	}
	return out
}

// xorOp is S <- S XOR O.
var xorOp = NewLogical(FuncXor, EncodeParams([]byte("S"), []byte("O")), []ObjectID{"O", "S"}, []ObjectID{"S"})

// checkXor runs builtinXor on (self, other), compares its output with
// xorReference and requires both inputs unchanged.
func checkXor(t *testing.T, sv, ov []byte) {
	t.Helper()
	svBefore, ovBefore := bytes.Clone(sv), bytes.Clone(ov)
	out, err := NewRegistry().Apply(xorOp, [][]byte{ov, sv})
	if err != nil {
		t.Fatal(err)
	}
	if want := xorReference(svBefore, ovBefore); !bytes.Equal(out[0], want) {
		t.Errorf("xor(len %d, len %d) = %x, want %x", len(sv), len(ov), out[0], want)
	}
	if !bytes.Equal(sv, svBefore) || !bytes.Equal(ov, ovBefore) {
		t.Errorf("xor(len %d, len %d) changed its inputs", len(sv), len(ov))
	}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*37)
	}
	return b
}

func TestXorMatchesReference(t *testing.T) {
	for _, c := range []struct {
		name        string
		self, other int
	}{
		{"empty other", 64, 0},
		{"empty self", 0, 5},
		{"one byte other", 64, 1},
		{"other divides self", 4096, 64},
		{"other equals self", 100, 100},
		{"other does not divide self", 4096, 100},
		{"short tail", 17, 8},
		{"other longer than self", 10, 33},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkXor(t, pattern(c.self, 1), pattern(c.other, 200))
		})
	}
	// Self and other may be the same object: one read, XORed with itself.
	v := pattern(50, 9)
	self := NewLogical(FuncXor, EncodeParams([]byte("S"), []byte("S")), []ObjectID{"S"}, []ObjectID{"S"})
	out, err := NewRegistry().Apply(self, [][]byte{v})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0], make([]byte, 50)) || !bytes.Equal(v, pattern(50, 9)) {
		t.Errorf("self XOR self = %x (input now %x), want zeros and the input unchanged", out[0], v)
	}
}

func FuzzXor(f *testing.F) {
	f.Add([]byte("self value"), []byte("k"))
	f.Add([]byte("self value"), []byte{})
	f.Add([]byte("abc"), []byte("longer other value"))
	f.Add(pattern(4096, 1), pattern(100, 2))
	f.Fuzz(func(t *testing.T, sv, ov []byte) {
		checkXor(t, sv, ov)
	})
}
