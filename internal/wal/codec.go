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

// readIDs reads an operation's three id lists (readset, writeset, deletes)
// into one backing array, each list capped at its length so an append to
// one never writes into the next.  The array is buf when the lists fit in
// it, else one allocation: a first pass over a copy of d sizes it.  names
// interns every id (see frame.Reader.Name).
func readIDs(d *frame.Reader, names *frame.Names, buf []op.ObjectID) (rs, ws, del []op.ObjectID) {
	peek := *d
	total := 0
	for range 3 {
		n := peek.Count()
		for range n {
			peek.Bytes()
		}
		total += n
	}
	ids := buf
	if total > len(buf) {
		ids = make([]op.ObjectID, total)
	}
	ids = ids[:total:total]
	list := func() []op.ObjectID {
		n := min(d.Count(), len(ids)) // d reads what peek read
		l := ids[:n:n]
		for i := range l {
			l[i] = op.ObjectID(d.Name(names))
		}
		ids = ids[n:]
		return l
	}
	rs = list()
	ws = list()
	del = list()
	return rs, ws, del
}

func readRSIs(d *frame.Reader, names *frame.Names) []ObjectRSI {
	out := make([]ObjectRSI, d.Count())
	for i := range out {
		out[i] = ObjectRSI{ID: op.ObjectID(d.Name(names)), RSI: op.SI(d.Uvarint())}
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
	return decodeRecord(payload, false, nil)
}

// recordHeader reads the type byte and LSN that open every record payload;
// ok is false unless the type is known and the LSN varint is whole.
func recordHeader(d *frame.Reader) (t RecordType, lsn op.SI, ok bool) {
	t = RecordType(d.Byte())
	lsn = op.SI(d.Uvarint())
	return t, lsn, d.Err() == nil && t != RecInvalid && t < numRecordTypes
}

// A decoded record and its payload share one allocation.  An operation
// record's also holds the backing arrays of the id lists and the value list
// of an operation that names at most two objects in all and logs at most
// one value.  That covers the single-object kinds, blind copies and
// deletes, and fills the 256-byte size class exactly.
type (
	opRecord struct {
		rec  Record
		op   op.Operation
		ids  [2]op.ObjectID
		vals [1][]byte
	}
	installRecord struct {
		rec     Record
		install InstallRecord
	}
	flushRecord struct {
		rec   Record
		flush FlushRecord
	}
	checkpointRecord struct {
		rec        Record
		checkpoint CheckpointRecord
	}
)

// decodeRecord parses a record payload.  With alias set, the record's byte
// fields alias payload, which the caller must keep immutable for the
// record's lifetime (the Scanner's snapshot qualifies); it removes the
// dominant per-record allocation of the redo scan.  Names are interned in
// names, which may be nil (see frame.Reader.Name).
func decodeRecord(payload []byte, alias bool, names *frame.Names) (*Record, error) {
	d := frame.NewReader(payload)
	t, lsn, ok := recordHeader(&d)
	if !ok {
		return nil, errCorrupt
	}
	var r *Record
	switch t {
	case RecOperation:
		x := &opRecord{}
		r = &x.rec
		r.Op = &x.op
		o := r.Op
		o.LSN, o.Kind, o.Func = lsn, op.Kind(d.Byte()), op.FuncID(d.Name(names))
		if o.Params = readBytes(&d, alias); len(o.Params) == 0 {
			o.Params = nil
		}
		o.ReadSet, o.WriteSet, o.Deletes = readIDs(&d, names, x.ids[:])
		// The encoder logs no values or one per writeset object, in
		// writeset order.
		nv := d.Uvarint()
		if nv != 0 && nv != uint64(len(o.WriteSet)) {
			return nil, errCorrupt
		}
		if nv > 0 {
			if o.Values = x.vals[:]; nv > 1 {
				o.Values = make([][]byte, nv)
			}
			for i, id := range o.WriteSet {
				if string(d.Bytes()) != string(id) {
					return nil, errCorrupt
				}
				o.Values[i] = readBytes(&d, alias)
			}
		}
	case RecInstall:
		x := &installRecord{}
		r = &x.rec
		r.Install = &x.install
		ir := r.Install
		ir.Flushed, ir.Unflushed = readRSIs(&d, names), readRSIs(&d, names)
		if n := d.Count(); n > 0 {
			ir.Ops = make([]op.SI, n)
			for i := range ir.Ops {
				ir.Ops[i] = op.SI(d.Uvarint())
			}
		}
	case RecFlush:
		x := &flushRecord{}
		r = &x.rec
		r.Flush = &x.flush
		r.Flush.Object, r.Flush.VSI = op.ObjectID(d.Name(names)), op.SI(d.Uvarint())
	case RecCheckpoint:
		x := &checkpointRecord{}
		r = &x.rec
		r.Checkpoint = &x.checkpoint
		if n := d.Count(); n > 0 {
			r.Checkpoint.Dirty = make([]DirtyEntry, n)
			for i := range r.Checkpoint.Dirty {
				r.Checkpoint.Dirty[i] = DirtyEntry{ID: op.ObjectID(d.Name(names)), RSI: op.SI(d.Uvarint())}
			}
		}
	}
	r.LSN, r.Type = lsn, t
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}
