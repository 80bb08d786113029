package wal

import (
	"encoding/binary"
	"fmt"

	"logicallog/internal/frame"
	"logicallog/internal/op"
)

// On the device every record is one internal/frame frame whose payload is
//
//	type   uint8
//	lsn    uvarint
//	body   (per type)
//
// The frame and this header (recordHeader) decide where the durable log
// ends (Scanner.step); the body is decoded only for a record a reader keeps.

// MaxRecordHeader bounds the bytes of a frame before any record body: the
// framing plus the payload's type byte and worst-case LSN varint.  A torn
// append of fewer than MaxRecordHeader bytes can cut anywhere inside this
// prefix; the exhaustive torn-tail tests cover every such length.
const MaxRecordHeader = frame.Overhead + 1 + binary.MaxVarintLen64

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
// source of the payload byte layout: EncodeRecord and the framed encoder the
// log's tail uses (AppendFrame) both route through it, so the durable format
// is byte-identical no matter which encoder produced it.
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
		for i, v := range o.Values { // each value repeats its object's name
			e.str(string(o.WriteSet[i]))
			e.bytes(v)
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
// returns the extended slice.  When buf has enough spare capacity (the log's
// tail in steady state) the frame is built in place with no allocation: the
// framing bytes are reserved, the payload is encoded after them, and
// frame.Seal fills them in.  The caller must have validated r; the bytes
// equal frame.Append(nil, EncodeRecord(r)).
func AppendFrame(buf []byte, r *Record) []byte {
	start := len(buf)
	var hdr [frame.Overhead]byte
	e := &encoder{buf: append(buf, hdr[:]...)}
	encodePayload(e, r)
	frame.Seal(e.buf, start)
	return e.buf
}

// DecodeRecord parses a record payload produced by EncodeRecord.  The
// returned record owns its memory (payload may be reused by the caller).
func DecodeRecord(payload []byte) (*Record, error) {
	return decodeRecord(payload, false)
}

// recordHeader parses the type byte and LSN that open every record payload
// and returns the offset of the body; ok is false unless the type is known
// and the LSN varint is whole.
func recordHeader(payload []byte) (t RecordType, lsn op.SI, body int, ok bool) {
	if len(payload) == 0 {
		return 0, 0, 0, false
	}
	t = RecordType(payload[0])
	v, n := binary.Uvarint(payload[1:])
	return t, op.SI(v), 1 + n, t != RecInvalid && t < numRecordTypes && n > 0
}

// decodeRecord parses a record payload.  With alias set, the record's byte
// fields alias payload, which the caller must keep immutable for the
// record's lifetime.
func decodeRecord(payload []byte, alias bool) (*Record, error) {
	t, lsn, body, ok := recordHeader(payload)
	if !ok {
		return nil, errCorrupt
	}
	d := &decoder{buf: payload[body:], alias: alias}
	r := &Record{LSN: lsn, Type: t}
	var err error
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
		// The encoder logs no values or one per writeset object, in
		// writeset order.
		if nv != 0 && nv != uint64(len(o.WriteSet)) {
			return nil, errCorrupt
		}
		if nv > 0 {
			o.Values = make([][]byte, nv)
			for i, x := range o.WriteSet {
				name, err := d.str()
				if err != nil {
					return nil, err
				}
				if op.ObjectID(name) != x {
					return nil, errCorrupt
				}
				if o.Values[i], err = d.bytes(); err != nil {
					return nil, err
				}
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
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after record", len(d.buf))
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}
