package frame

import (
	"bytes"
	"errors"
	"testing"
)

// TestFieldRoundTrip: every field kind reads back as appended, a bytes field
// aliases the payload with its capacity capped, and Done is clean only at
// the end.
func TestFieldRoundTrip(t *testing.T) {
	p := AppendByte(nil, 7)
	p = AppendUvarint(p, 1<<40)
	p = AppendVarint(p, -3)
	p = AppendBytes(p, []byte("ab"))
	p = AppendString(p, "cd")
	p = AppendBytes(p, nil)
	d := NewReader(p)
	if v := d.Byte(); v != 7 {
		t.Fatalf("Byte = %d", v)
	}
	if v := d.Uvarint(); v != 1<<40 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := d.Varint(); v != -3 {
		t.Fatalf("Varint = %d", v)
	}
	b := d.Bytes()
	if string(b) != "ab" || cap(b) != 2 {
		t.Fatalf("Bytes = %q, cap %d", b, cap(b))
	}
	if !errors.Is(d.Done(), ErrTrailing) {
		t.Fatalf("Done before the last field = %v, want ErrTrailing", d.Done())
	}
	_ = append(b, 'x')
	if s := d.Str(); s != "cd" {
		t.Fatalf("Str = %q (an append to the field before it wrote into it?)", s)
	}
	if b := d.Bytes(); len(b) != 0 {
		t.Fatalf("empty Bytes = %q", b)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderKeepsFirstFailure: a field cut short, or a count above the bytes
// left, fails the Reader; every later getter returns its zero value and Len
// is 0, even when unread bytes were left.
func TestReaderKeepsFirstFailure(t *testing.T) {
	for _, c := range []struct {
		name string
		read func(*Reader)
		p    []byte
	}{
		{"empty byte", func(d *Reader) { d.Byte() }, nil},
		{"cut uvarint", func(d *Reader) { d.Uvarint() }, []byte{0x80}},
		{"uvarint over 64 bits", func(d *Reader) { d.Uvarint() }, bytes.Repeat([]byte{0xff}, 11)},
		{"cut varint", func(d *Reader) { d.Varint() }, []byte{0x80}},
		{"cut bytes", func(d *Reader) { d.Bytes() }, []byte{3, 'a', 'b'}},
		{"count above the bytes left", func(d *Reader) { d.Count() }, []byte{3, 'a', 'b'}},
	} {
		d := NewReader(c.p)
		c.read(&d)
		if d.Err() == nil || !errors.Is(d.Done(), ErrField) {
			t.Fatalf("%s: Err %v, Done %v; want ErrField", c.name, d.Err(), d.Done())
		}
		if d.Len() != 0 || d.Str() != "" || d.Count() != 0 || d.Uvarint() != 0 {
			t.Fatalf("%s: getters after the failure read on", c.name)
		}
	}
	d := NewReader([]byte{2, 'a', 'b'})
	if n := d.Count(); n != 2 || d.Err() != nil {
		t.Fatalf("Count = %d, %v; want 2 (the bytes left)", n, d.Err())
	}
}
