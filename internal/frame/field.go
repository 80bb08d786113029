package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The field codec.  A payload is a sequence of fields, each one of
//
//	byte     one raw byte
//	uvarint  encoding/binary's unsigned varint
//	varint   encoding/binary's zig-zag signed varint
//	bytes    uvarint length | that many raw bytes (a string the same)
//
// with no tags: the layout that reads a payload names its fields in order.
// The appenders extend the caller's slice, so a payload can be encoded in
// place after reserved framing bytes (Seal).

// MaxVarintLen is the longest a uvarint or varint field can be.
const MaxVarintLen = binary.MaxVarintLen64

// ErrField reports a field cut short, a varint that does not fit 64 bits, or
// a count above the bytes left.
var ErrField = errors.New("frame: truncated or malformed field")

// ErrTrailing reports bytes left after a payload's last field.
var ErrTrailing = errors.New("frame: trailing bytes after the last field")

// AppendByte appends a byte field to dst and returns the extended slice.
func AppendByte(dst []byte, v byte) []byte { return append(dst, v) }

// AppendUvarint appends a uvarint field to dst and returns the extended slice.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends a varint field to dst and returns the extended slice.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendBytes appends a bytes field to dst and returns the extended slice.
func AppendBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// AppendString appends a string field to dst and returns the extended slice.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// Reader reads the fields of one payload in order.  It is a value: declare
// one on the stack, read every field, then check Err or Done once.  The first
// field that does not decode is kept as the error; from then on every getter
// returns its zero value and Len is 0, so a count read after a failure sizes
// nothing.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over p.
func NewReader(p []byte) Reader { return Reader{buf: p} }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrField
	}
	r.buf = nil
}

// Byte reads a byte field.
func (r *Reader) Byte() byte {
	if len(r.buf) == 0 {
		r.fail()
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

// Uvarint reads a uvarint field.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a varint field.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Count reads a uvarint count of items that each take at least one byte, and
// fails when it exceeds the bytes left, so no loop or allocation it sizes
// holds more items than the payload can.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if n > uint64(len(r.buf)) {
		r.fail()
		return 0
	}
	return int(n)
}

// Bytes reads a bytes field.  The result aliases the Reader's input with its
// capacity capped at its length, so appending to it never writes into the
// field after it.
func (r *Reader) Bytes() []byte {
	l := r.Uvarint()
	if uint64(len(r.buf)) < l {
		r.fail()
		return nil
	}
	b := r.buf[:l:l]
	r.buf = r.buf[l:]
	return b
}

// Str reads a string field.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Names is an intern table for Reader.Name: each distinct string read
// through one table is allocated once, and every later read of it returns
// that same string, until the table holds maxNames strings.  The zero value
// is an empty table.
type Names struct {
	m map[string]string
	// full is set, and m dropped, when a string beyond maxNames arrives.
	full bool
	// last is the string Name returned last.  Records tend to name one
	// object twice in a row (a read-modify-write, or an operation and its
	// flush), and comparing with last is cheaper than a map lookup.
	last string
}

// maxNames bounds an intern table.  Interning pays only while the table
// stays in cache: on a restart that names 10 000 keys, a lookup cost more
// than the small allocation it saved.  Past the bound Name allocates each
// string as Str does, sharing only with the last one.
const maxNames = 1024

// Name reads a string field and returns names' copy of it, adding the
// string on first sight.  Looking up a known name does not allocate.  With
// a nil table Name is Str.
func (r *Reader) Name(names *Names) string {
	b := r.Bytes()
	if names == nil || len(b) == 0 {
		return string(b)
	}
	if string(b) == names.last {
		return names.last
	}
	s, ok := names.m[string(b)]
	if !ok {
		s = string(b)
		switch {
		case names.full:
		case len(names.m) == maxNames:
			names.m, names.full = nil, true
		case names.m == nil:
			names.m = map[string]string{s: s}
		default:
			names.m[s] = s
		}
	}
	names.last = s
	return s
}

// Len returns the bytes left unread.
func (r *Reader) Len() int { return len(r.buf) }

// Err returns ErrField if a field failed to decode, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns Err, or ErrTrailing if bytes are left unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.buf))
	}
	return r.err
}
