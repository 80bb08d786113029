package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"logicallog/internal/op"
)

// On-device framing: every record is
//
//	[4-byte little-endian payload length][4-byte CRC32C of payload][payload]
//
// A scan stops cleanly at a torn tail (truncated frame or CRC mismatch in
// the final frame position), which is how real WALs discover the end of log
// after a crash.
//
// Payload:
//
//	type   uint8
//	lsn    uvarint
//	body   (per type)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameOverhead is the per-record framing cost in bytes.
const frameOverhead = 8

// MaxRecordHeader bounds the bytes of a frame before any record body: the
// framing plus the payload's type byte and worst-case LSN varint.  A torn
// append of fewer than MaxRecordHeader bytes can cut anywhere inside this
// prefix; the exhaustive torn-tail tests cover every such length.
const MaxRecordHeader = frameOverhead + 1 + binary.MaxVarintLen64

type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }
func (e *encoder) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	e.buf = append(e.buf, tmp[:n]...)
}
func (e *encoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *encoder) str(s string) { e.bytes([]byte(s)) }
func (e *encoder) ids(ids []op.ObjectID) {
	e.uvarint(uint64(len(ids)))
	for _, id := range ids {
		e.str(string(id))
	}
}
func (e *encoder) rsis(s []ObjectRSI) {
	e.uvarint(uint64(len(s)))
	for _, r := range s {
		e.str(string(r.ID))
		e.uvarint(uint64(r.RSI))
	}
}

type decoder struct {
	buf []byte
	// alias, when set, makes bytes() return subslices of buf instead of
	// copies.  Safe only when buf is immutable and outlives the record
	// (the Scanner's snapshot qualifies); it removes the dominant
	// per-record allocation of the redo scan.
	alias bool
}

var errCorrupt = fmt.Errorf("wal: corrupt record payload")

func (d *decoder) u8() (uint8, error) {
	if len(d.buf) < 1 {
		return 0, errCorrupt
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v, nil
}
func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, errCorrupt
	}
	d.buf = d.buf[n:]
	return v, nil
}
func (d *decoder) bytes() ([]byte, error) {
	l, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(d.buf)) < l {
		return nil, errCorrupt
	}
	var out []byte
	if d.alias {
		out = d.buf[:l:l]
	} else {
		out = append([]byte(nil), d.buf[:l]...)
	}
	d.buf = d.buf[l:]
	return out, nil
}
func (d *decoder) str() (string, error) {
	b, err := d.bytes()
	return string(b), err
}
func (d *decoder) ids() ([]op.ObjectID, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)) { // each id costs ≥1 byte; reject absurd counts
		return nil, errCorrupt
	}
	out := make([]op.ObjectID, 0, n)
	for i := uint64(0); i < n; i++ {
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		out = append(out, op.ObjectID(s))
	}
	return out, nil
}
func (d *decoder) rsis() ([]ObjectRSI, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)) {
		return nil, errCorrupt
	}
	out := make([]ObjectRSI, 0, n)
	for i := uint64(0); i < n; i++ {
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		r, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		out = append(out, ObjectRSI{ID: op.ObjectID(s), RSI: op.SI(r)})
	}
	return out, nil
}

// EncodeRecord serializes a record payload (without framing).
func EncodeRecord(r *Record) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	e := &encoder{}
	encodePayload(e, r)
	return e.buf, nil
}

// encodePayload serializes a validated record into e.  It is the single
// source of the payload byte layout: the heap path (EncodeRecord) and the
// arena path (AppendFrame) both route through it, so the durable format is
// byte-identical no matter which encoder produced it.
func encodePayload(e *encoder, r *Record) {
	e.u8(uint8(r.Type))
	e.uvarint(uint64(r.LSN))
	switch r.Type {
	case RecOperation:
		o := r.Op
		e.u8(uint8(o.Kind))
		e.str(string(o.Func))
		e.bytes(o.Params)
		e.ids(o.ReadSet)
		e.ids(o.WriteSet)
		e.ids(o.Deletes)
		e.uvarint(uint64(len(o.Values)))
		for _, x := range o.WriteSet { // deterministic order
			if v, ok := o.Values[x]; ok {
				e.str(string(x))
				e.bytes(v)
			}
		}
	case RecInstall:
		e.rsis(r.Install.Flushed)
		e.rsis(r.Install.Unflushed)
		e.uvarint(uint64(len(r.Install.Ops)))
		for _, l := range r.Install.Ops {
			e.uvarint(uint64(l))
		}
	case RecFlush:
		e.str(string(r.Flush.Object))
		e.uvarint(uint64(r.Flush.VSI))
	case RecCheckpoint:
		e.uvarint(uint64(len(r.Checkpoint.Dirty)))
		for _, d := range r.Checkpoint.Dirty {
			e.str(string(d.ID))
			e.uvarint(uint64(d.RSI))
		}
	}
}

// AppendFrame appends the framed encoding of a validated record to buf and
// returns the extended slice.  When buf has enough spare capacity (an arena
// chunk) the frame is built in place with no allocation: the 8 framing bytes
// are reserved, the payload is encoded after them, and length + CRC are
// backfilled.  The caller must have validated r; the byte layout matches
// Frame(EncodeRecord(r)) exactly.
func AppendFrame(buf []byte, r *Record) []byte {
	start := len(buf)
	var hdr [frameOverhead]byte
	e := &encoder{buf: append(buf, hdr[:]...)}
	encodePayload(e, r)
	out := e.buf
	payload := out[start+frameOverhead:]
	binary.LittleEndian.PutUint32(out[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[start+4:start+8], crc32.Checksum(payload, crcTable))
	return out
}

// DecodeRecord parses a record payload produced by EncodeRecord.  The
// returned record owns its memory (payload may be reused by the caller).
func DecodeRecord(payload []byte) (*Record, error) {
	return decodeRecord(payload, false)
}

// decodeRecordAliased parses a record whose byte fields alias payload.  The
// caller must guarantee payload is immutable for the record's lifetime.
func decodeRecordAliased(payload []byte) (*Record, error) {
	return decodeRecord(payload, true)
}

func decodeRecord(payload []byte, alias bool) (*Record, error) {
	d := &decoder{buf: payload, alias: alias}
	t, err := d.u8()
	if err != nil {
		return nil, err
	}
	lsn, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	r := &Record{LSN: op.SI(lsn), Type: RecordType(t)}
	switch r.Type {
	case RecOperation:
		o := &op.Operation{LSN: r.LSN}
		k, err := d.u8()
		if err != nil {
			return nil, err
		}
		o.Kind = op.Kind(k)
		fn, err := d.str()
		if err != nil {
			return nil, err
		}
		o.Func = op.FuncID(fn)
		if o.Params, err = d.bytes(); err != nil {
			return nil, err
		}
		if len(o.Params) == 0 {
			o.Params = nil
		}
		if o.ReadSet, err = d.ids(); err != nil {
			return nil, err
		}
		if o.WriteSet, err = d.ids(); err != nil {
			return nil, err
		}
		if o.Deletes, err = d.ids(); err != nil {
			return nil, err
		}
		nv, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if nv > uint64(len(d.buf)) { // each value costs ≥2 bytes; reject absurd counts
			return nil, errCorrupt
		}
		if nv > 0 {
			o.Values = make(map[op.ObjectID][]byte, nv)
			for i := uint64(0); i < nv; i++ {
				x, err := d.str()
				if err != nil {
					return nil, err
				}
				if !o.Writes(op.ObjectID(x)) { // the encoder logs values of writeset objects only
					return nil, errCorrupt
				}
				v, err := d.bytes()
				if err != nil {
					return nil, err
				}
				o.Values[op.ObjectID(x)] = v
			}
		}
		r.Op = o
	case RecInstall:
		ir := &InstallRecord{}
		if ir.Flushed, err = d.rsis(); err != nil {
			return nil, err
		}
		if ir.Unflushed, err = d.rsis(); err != nil {
			return nil, err
		}
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(d.buf))+1 {
			return nil, errCorrupt
		}
		for i := uint64(0); i < n; i++ {
			l, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			ir.Ops = append(ir.Ops, op.SI(l))
		}
		r.Install = ir
	case RecFlush:
		x, err := d.str()
		if err != nil {
			return nil, err
		}
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		r.Flush = &FlushRecord{Object: op.ObjectID(x), VSI: op.SI(v)}
	case RecCheckpoint:
		cr := &CheckpointRecord{}
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(d.buf))+1 {
			return nil, errCorrupt
		}
		for i := uint64(0); i < n; i++ {
			x, err := d.str()
			if err != nil {
				return nil, err
			}
			rsi, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			cr.Dirty = append(cr.Dirty, DirtyEntry{ID: op.ObjectID(x), RSI: op.SI(rsi)})
		}
		r.Checkpoint = cr
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", t)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after record", len(d.buf))
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// Frame wraps an encoded payload with length + CRC framing.
func Frame(payload []byte) []byte {
	out := make([]byte, frameOverhead+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, crcTable))
	copy(out[frameOverhead:], payload)
	return out
}

// Unframe extracts the next payload from data.  It returns the payload, the
// number of bytes consumed, and an error.  A truncated or corrupt frame
// returns errTornTail, which scanners treat as end-of-log.
func Unframe(data []byte) ([]byte, int, error) {
	if len(data) < frameOverhead {
		return nil, 0, errTornTail
	}
	l := binary.LittleEndian.Uint32(data[0:4])
	want := binary.LittleEndian.Uint32(data[4:8])
	if uint32(len(data)-frameOverhead) < l {
		return nil, 0, errTornTail
	}
	payload := data[frameOverhead : frameOverhead+int(l)]
	if crc32.Checksum(payload, crcTable) != want {
		return nil, 0, errTornTail
	}
	return payload, frameOverhead + int(l), nil
}

var errTornTail = fmt.Errorf("wal: torn or corrupt frame (end of log)")
