package wal

import (
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
const MaxRecordHeader = frame.Overhead + 1 + frame.MaxVarintLen

func appendIDs(dst []byte, ids []op.ObjectID) []byte {
	dst = frame.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = frame.AppendString(dst, string(id))
	}
	return dst
}

func appendRSIs(dst []byte, s []ObjectRSI) []byte {
	dst = frame.AppendUvarint(dst, uint64(len(s)))
	for _, r := range s {
		dst = frame.AppendString(dst, string(r.ID))
		dst = frame.AppendUvarint(dst, uint64(r.RSI))
	}
	return dst
}

var errCorrupt = fmt.Errorf("wal: corrupt record payload")

func readIDs(d *frame.Reader) []op.ObjectID {
	out := make([]op.ObjectID, d.Count())
	for i := range out {
		out[i] = op.ObjectID(d.Str())
	}
	return out
}

func readRSIs(d *frame.Reader) []ObjectRSI {
	out := make([]ObjectRSI, d.Count())
	for i := range out {
		out[i] = ObjectRSI{ID: op.ObjectID(d.Str()), RSI: op.SI(d.Uvarint())}
	}
	return out
}

// readBytes reads a bytes field: with alias set it aliases d's input, else
// it is a copy (nil when empty).
func readBytes(d *frame.Reader, alias bool) []byte {
	b := d.Bytes()
	if alias {
		return b
	}
	return append([]byte(nil), b...)
}

// EncodeRecord serializes a record payload (without framing).
func EncodeRecord(r *Record) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return appendPayload(nil, r), nil
}

// appendPayload appends the payload of a validated record to dst.  It is the
// single source of the payload byte layout: EncodeRecord and the framed
// encoder the log's tail uses (AppendFrame) both route through it, so the
// durable format is byte-identical no matter which encoder produced it.
func appendPayload(dst []byte, r *Record) []byte {
	dst = frame.AppendByte(dst, uint8(r.Type))
	dst = frame.AppendUvarint(dst, uint64(r.LSN))
	switch r.Type {
	case RecOperation:
		o := r.Op
		dst = frame.AppendByte(dst, uint8(o.Kind))
		dst = frame.AppendString(dst, string(o.Func))
		dst = frame.AppendBytes(dst, o.Params)
		dst = appendIDs(dst, o.ReadSet)
		dst = appendIDs(dst, o.WriteSet)
		dst = appendIDs(dst, o.Deletes)
		dst = frame.AppendUvarint(dst, uint64(len(o.Values)))
		for i, v := range o.Values { // each value repeats its object's name
			dst = frame.AppendString(dst, string(o.WriteSet[i]))
			dst = frame.AppendBytes(dst, v)
		}
	case RecInstall:
		dst = appendRSIs(dst, r.Install.Flushed)
		dst = appendRSIs(dst, r.Install.Unflushed)
		dst = frame.AppendUvarint(dst, uint64(len(r.Install.Ops)))
		for _, l := range r.Install.Ops {
			dst = frame.AppendUvarint(dst, uint64(l))
		}
	case RecFlush:
		dst = frame.AppendString(dst, string(r.Flush.Object))
		dst = frame.AppendUvarint(dst, uint64(r.Flush.VSI))
	case RecCheckpoint:
		dst = frame.AppendUvarint(dst, uint64(len(r.Checkpoint.Dirty)))
		for _, d := range r.Checkpoint.Dirty {
			dst = frame.AppendString(dst, string(d.ID))
			dst = frame.AppendUvarint(dst, uint64(d.RSI))
		}
	}
	return dst
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
	buf = appendPayload(append(buf, hdr[:]...), r)
	frame.Seal(buf, start)
	return buf
}

// DecodeRecord parses a record payload produced by EncodeRecord.  The
// returned record owns its memory (payload may be reused by the caller).
func DecodeRecord(payload []byte) (*Record, error) {
	return decodeRecord(payload, false)
}

// recordHeader reads the type byte and LSN that open every record payload;
// ok is false unless the type is known and the LSN varint is whole.
func recordHeader(d *frame.Reader) (t RecordType, lsn op.SI, ok bool) {
	t = RecordType(d.Byte())
	lsn = op.SI(d.Uvarint())
	return t, lsn, d.Err() == nil && t != RecInvalid && t < numRecordTypes
}

// decodeRecord parses a record payload.  With alias set, the record's byte
// fields alias payload, which the caller must keep immutable for the
// record's lifetime (the Scanner's snapshot qualifies); it removes the
// dominant per-record allocation of the redo scan.
func decodeRecord(payload []byte, alias bool) (*Record, error) {
	d := frame.NewReader(payload)
	t, lsn, ok := recordHeader(&d)
	if !ok {
		return nil, errCorrupt
	}
	r := &Record{LSN: lsn, Type: t}
	switch r.Type {
	case RecOperation:
		o := &op.Operation{LSN: r.LSN, Kind: op.Kind(d.Byte()), Func: op.FuncID(d.Str())}
		if o.Params = readBytes(&d, alias); len(o.Params) == 0 {
			o.Params = nil
		}
		o.ReadSet = readIDs(&d)
		o.WriteSet = readIDs(&d)
		o.Deletes = readIDs(&d)
		// The encoder logs no values or one per writeset object, in
		// writeset order.
		nv := d.Uvarint()
		if nv != 0 && nv != uint64(len(o.WriteSet)) {
			return nil, errCorrupt
		}
		if nv > 0 {
			o.Values = make([][]byte, nv)
			for i, x := range o.WriteSet {
				if op.ObjectID(d.Str()) != x {
					return nil, errCorrupt
				}
				o.Values[i] = readBytes(&d, alias)
			}
		}
		r.Op = o
	case RecInstall:
		ir := &InstallRecord{Flushed: readRSIs(&d), Unflushed: readRSIs(&d)}
		if n := d.Count(); n > 0 {
			ir.Ops = make([]op.SI, n)
			for i := range ir.Ops {
				ir.Ops[i] = op.SI(d.Uvarint())
			}
		}
		r.Install = ir
	case RecFlush:
		r.Flush = &FlushRecord{Object: op.ObjectID(d.Str()), VSI: op.SI(d.Uvarint())}
	case RecCheckpoint:
		cr := &CheckpointRecord{}
		if n := d.Count(); n > 0 {
			cr.Dirty = make([]DirtyEntry, n)
			for i := range cr.Dirty {
				cr.Dirty[i] = DirtyEntry{ID: op.ObjectID(d.Str()), RSI: op.SI(d.Uvarint())}
			}
		}
		r.Checkpoint = cr
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}
