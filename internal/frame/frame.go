// Package frame is the module's one checksummed framing codec.  Every byte
// stream that must survive a crash or cross a wire — WAL device records,
// ship batches, the flight recorder's spill file, the server protocol — is a
// sequence of frames
//
//	u32le payload length | u32le CRC32-C of the payload | payload
//
// A frame counts only when all of it is present and its checksum matches.
// Readers stop at the first frame that does not: after a crash that is the
// torn tail of the last write, and it carries no information.
//
// The package is also the module's one field codec (field.go): the byte,
// uvarint, varint and length-prefixed fields that WAL record payloads, the
// flight spill's events and op params are made of, written by the Append*
// functions and read by a Reader.  The server protocol's fixed-width fields
// are its own layout and do not use it.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Overhead is the bytes a frame adds to its payload.
const Overhead = 8

var table = crc32.MakeTable(crc32.Castagnoli)

// ErrTooLarge reports a payload, or a length prefix, above the caller's
// bound.
var ErrTooLarge = errors.New("frame: payload exceeds size limit")

// ErrCorrupt reports a whole frame whose checksum does not match.
var ErrCorrupt = errors.New("frame: checksum mismatch")

// Append appends the frame of payload to dst and returns the extended slice.
func Append(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, table))
	return append(dst, payload...)
}

// Seal completes a frame built in place: the caller reserved Overhead bytes
// at buf[start:] and encoded the payload after them, up to len(buf).  Seal
// fills in the length and checksum.
func Seal(buf []byte, start int) {
	payload := buf[start+Overhead:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, table))
}

// Next decodes the frame at the start of data.  It returns the payload,
// aliasing data, and the frame's length; ok is false when data does not
// begin with a whole frame whose checksum matches.
func Next(data []byte) (payload []byte, n int, ok bool) {
	payload, n, ok = NextTrusted(data)
	if !ok {
		return nil, 0, false
	}
	if crc32.Checksum(payload, table) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, 0, false
	}
	return payload, n, true
}

// NextTrusted is Next without the checksum, for a reader walking bytes that
// Next already accepted frame by frame and that nothing has written since.
// It checks only that data begins with a whole frame.
func NextTrusted(data []byte) (payload []byte, n int, ok bool) {
	if len(data) < Overhead {
		return nil, 0, false
	}
	l := binary.LittleEndian.Uint32(data)
	if uint64(len(data)-Overhead) < uint64(l) {
		return nil, 0, false
	}
	n = Overhead + int(l)
	return data[Overhead:n:n], n, true
}

// Write completes the frame built in buf — Overhead reserved bytes, then the
// payload, as Seal expects with start 0 — and writes it to w in one Write
// call, so concurrent writers sharing a connection never interleave inside a
// frame.  A payload longer than max is refused with ErrTooLarge.
func Write(w io.Writer, buf []byte, max int) error {
	if n := len(buf) - Overhead; n > max {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	Seal(buf, 0)
	_, err := w.Write(buf)
	return err
}

// Read reads one frame from r and returns its payload.  It returns io.EOF
// at a clean frame boundary, io.ErrUnexpectedEOF for a frame cut short (a
// torn frame: no partial payload is ever surfaced), ErrTooLarge for a length
// prefix above max — before allocating for it — and ErrCorrupt for a
// checksum mismatch.
func Read(r io.Reader, max int) ([]byte, error) {
	var hdr [Overhead]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	l := binary.LittleEndian.Uint32(hdr[:])
	if uint64(l) > uint64(max) {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, l)
	}
	payload := make([]byte, l)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.Checksum(payload, table) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, ErrCorrupt
	}
	return payload, nil
}
