// Package server is the network front-end over core.Engine: a concurrent
// TCP server speaking a length-prefixed CRC-framed binary protocol, with
// biscuit-style admission control (a bounded token channel brackets every
// operation, Op_begin/Op_end), pipelined clients, graceful drain on
// shutdown, and — the headline — instant recovery: after a crash the
// listener opens while redo is still running, each request drains exactly
// the dependency chains its objects need (Engine gating over
// recovery.OnDemand), and background workers finish the rest.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MaxFrame bounds a frame's payload in both directions, so a corrupt or
// hostile length prefix cannot balloon allocation.
const MaxFrame = 1 << 20

// Wire protocol, one internal/frame frame per message: a frame whose
// checksum does not match or whose length is over MaxFrame kills the
// connection, and a frame cut short by the connection dying is torn and
// never acted on.
//
//	request  payload: u64le reqID | u8 opcode | body
//	response payload: u64le reqID | u8 status | body
//
// Clients pipeline freely: requests carry client-chosen ids, responses echo
// them, and the server may answer out of order (each request is handled by
// its own goroutine once admitted).  Body encodings use u16le length
// prefixes for keys and u32le for values.

// Opcodes.
const (
	OpPing   uint8 = 1 // body: empty            -> OK, empty
	OpGet    uint8 = 2 // body: key              -> OK, value | NotFound
	OpPut    uint8 = 3 // body: klen|key|value   -> OK
	OpDelete uint8 = 4 // body: key              -> OK, u8 found
	OpScan   uint8 = 5 // body: lo|hi|limit      -> OK, pair chunk (see Scan types)
	OpCheck  uint8 = 6 // body: empty            -> OK | Err(message)
	OpStats  uint8 = 7 // body: empty            -> OK, "name value" lines
)

// Statuses.
const (
	StatusOK       uint8 = 0
	StatusNotFound uint8 = 1
	StatusErr      uint8 = 2 // body is the error message
	StatusShutdown uint8 = 3 // server draining; the operation did not run
)

// errShutdown is what a client call returns when the server refused the
// operation because it is draining.
var errShutdown = errors.New("server: shutting down")

// ErrShutdown reports whether err is the server-draining refusal.
func ErrShutdown(err error) bool { return errors.Is(err, errShutdown) }

// errMalformed covers every request/response body that fails to parse.
var errMalformed = errors.New("server: malformed message")

// Request is a decoded request.
type Request struct {
	ID  uint64
	Op  uint8
	Key []byte // Get, Put, Delete
	Val []byte // Put
	Lo  []byte // Scan
	Hi  []byte // Scan; empty = unbounded
	N   int    // Scan chunk limit
}

// ScanPair is one key/value pair in a scan response chunk.
type ScanPair struct {
	Key, Val []byte
}

// appendU16Bytes appends u16le len | bytes.
func appendU16Bytes(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(b)))
	return append(dst, b...)
}

// takeU16Bytes splits u16le len | bytes off the front of b.
func takeU16Bytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 2 {
		return nil, nil, errMalformed
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return nil, nil, errMalformed
	}
	return b[:n], b[n:], nil
}

// EncodeRequest builds a request payload.
func EncodeRequest(req *Request) ([]byte, error) {
	out := binary.LittleEndian.AppendUint64(make([]byte, 0, 16+len(req.Key)+len(req.Val)), req.ID)
	out = append(out, req.Op)
	switch req.Op {
	case OpPing, OpCheck, OpStats:
	case OpGet, OpDelete:
		if len(req.Key) > 0xffff {
			return nil, fmt.Errorf("server: key too long (%d bytes)", len(req.Key))
		}
		out = append(out, req.Key...)
	case OpPut:
		if len(req.Key) > 0xffff {
			return nil, fmt.Errorf("server: key too long (%d bytes)", len(req.Key))
		}
		out = appendU16Bytes(out, req.Key)
		out = append(out, req.Val...)
	case OpScan:
		if len(req.Lo) > 0xffff || len(req.Hi) > 0xffff {
			return nil, fmt.Errorf("server: scan bound too long")
		}
		out = appendU16Bytes(out, req.Lo)
		out = appendU16Bytes(out, req.Hi)
		out = binary.LittleEndian.AppendUint16(out, uint16(req.N))
	default:
		return nil, fmt.Errorf("server: unknown opcode %d", req.Op)
	}
	return out, nil
}

// DecodeRequest parses a request payload.
func DecodeRequest(p []byte) (*Request, error) {
	if len(p) < 9 {
		return nil, errMalformed
	}
	req := &Request{ID: binary.LittleEndian.Uint64(p), Op: p[8]}
	body := p[9:]
	var err error
	switch req.Op {
	case OpPing, OpCheck, OpStats:
		if len(body) != 0 {
			return nil, errMalformed
		}
	case OpGet, OpDelete:
		req.Key = body
	case OpPut:
		if req.Key, body, err = takeU16Bytes(body); err != nil {
			return nil, err
		}
		req.Val = body
	case OpScan:
		if req.Lo, body, err = takeU16Bytes(body); err != nil {
			return nil, err
		}
		if req.Hi, body, err = takeU16Bytes(body); err != nil {
			return nil, err
		}
		if len(body) != 2 {
			return nil, errMalformed
		}
		req.N = int(binary.LittleEndian.Uint16(body))
	default:
		return nil, fmt.Errorf("%w: unknown opcode %d", errMalformed, req.Op)
	}
	return req, nil
}

// encodeResponse builds a response payload header; body is appended by the
// caller-specific encoders below.
func encodeResponse(id uint64, status uint8, body []byte) []byte {
	out := binary.LittleEndian.AppendUint64(make([]byte, 0, 9+len(body)), id)
	out = append(out, status)
	return append(out, body...)
}

// decodeResponse splits a response payload.
func decodeResponse(p []byte) (id uint64, status uint8, body []byte, err error) {
	if len(p) < 9 {
		return 0, 0, nil, errMalformed
	}
	return binary.LittleEndian.Uint64(p), p[8], p[9:], nil
}

// encodeScanChunk builds a scan response body: u16le count, count pairs of
// (u16le klen | key | u32le vlen | val), u8 more.
func encodeScanChunk(pairs []ScanPair, more bool) []byte {
	out := binary.LittleEndian.AppendUint16(nil, uint16(len(pairs)))
	for _, p := range pairs {
		out = appendU16Bytes(out, p.Key)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p.Val)))
		out = append(out, p.Val...)
	}
	if more {
		return append(out, 1)
	}
	return append(out, 0)
}

// decodeScanChunk parses a scan response body.
func decodeScanChunk(body []byte) (pairs []ScanPair, more bool, err error) {
	if len(body) < 2 {
		return nil, false, errMalformed
	}
	n := int(binary.LittleEndian.Uint16(body))
	body = body[2:]
	for i := 0; i < n; i++ {
		var k []byte
		if k, body, err = takeU16Bytes(body); err != nil {
			return nil, false, err
		}
		if len(body) < 4 {
			return nil, false, errMalformed
		}
		vn := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if len(body) < vn {
			return nil, false, errMalformed
		}
		pairs = append(pairs, ScanPair{Key: k, Val: body[:vn]})
		body = body[vn:]
	}
	if len(body) != 1 || body[0] > 1 {
		return nil, false, errMalformed
	}
	return pairs, body[0] == 1, nil
}
