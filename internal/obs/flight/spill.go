package flight

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"logicallog/internal/frame"
	"logicallog/internal/op"
)

// Spill-file format: a sequence of internal/frame frames, each payload a
// varint encoding of one Event (seq, at-ns, kind, dec, lsn, ref, object,
// n, actor).  A reopen applies the WAL's torn-tail rule: scan frames from
// the start, stop at the first incomplete frame, checksum mismatch, or
// undecodable payload, and truncate the file back to the last good frame.
// Everything before the torn tail survives the crash.

// spillFlushThreshold bounds the pending-encode buffer; emission under
// foreign mutexes only pays a file write when a batch has accumulated.
const spillFlushThreshold = 32 << 10

type spillFile struct {
	f   file
	buf []byte
	// size is the length of the file's good prefix: every byte below it
	// belongs to a whole frame.
	size int64
}

// file is the part of *os.File a spill uses; in-package tests substitute
// one that fails on cue.
type file interface {
	Write(p []byte) (int, error)
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Sync() error
	Close() error
}

func appendSpillFrame(dst []byte, ev *Event) []byte {
	var p []byte
	p = binary.AppendUvarint(p, ev.Seq)
	p = binary.AppendUvarint(p, uint64(ev.At))
	p = append(p, byte(ev.Kind), byte(ev.Dec))
	p = binary.AppendUvarint(p, uint64(ev.LSN))
	p = binary.AppendUvarint(p, uint64(ev.Ref))
	p = binary.AppendUvarint(p, uint64(len(ev.Object)))
	p = append(p, ev.Object...)
	p = binary.AppendVarint(p, ev.N)
	p = binary.AppendUvarint(p, uint64(len(ev.Actor)))
	p = append(p, ev.Actor...)
	return frame.Append(dst, p)
}

// decodeSpillEvent decodes one frame payload; any leftover or truncated
// field is an error (the caller treats it as a torn tail).
func decodeSpillEvent(p []byte) (Event, error) {
	var ev Event
	u := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, fmt.Errorf("flight: spill varint truncated")
		}
		p = p[n:]
		return v, nil
	}
	seq, err := u()
	if err != nil {
		return ev, err
	}
	at, err := u()
	if err != nil {
		return ev, err
	}
	if len(p) < 2 {
		return ev, fmt.Errorf("flight: spill kind/dec truncated")
	}
	ev.Seq, ev.At = seq, time.Duration(at)
	ev.Kind, ev.Dec = Kind(p[0]), Decision(p[1])
	p = p[2:]
	lsn, err := u()
	if err != nil {
		return ev, err
	}
	ref, err := u()
	if err != nil {
		return ev, err
	}
	ev.LSN, ev.Ref = op.SI(lsn), op.SI(ref)
	olen, err := u()
	if err != nil {
		return ev, err
	}
	if uint64(len(p)) < olen {
		return ev, fmt.Errorf("flight: spill object truncated")
	}
	ev.Object = op.ObjectID(p[:olen])
	p = p[olen:]
	n, w := binary.Varint(p)
	if w <= 0 {
		return ev, fmt.Errorf("flight: spill n truncated")
	}
	ev.N = n
	p = p[w:]
	alen, err := u()
	if err != nil {
		return ev, err
	}
	if uint64(len(p)) != alen {
		return ev, fmt.Errorf("flight: spill actor length mismatch")
	}
	ev.Actor = string(p)
	return ev, nil
}

// scanSpill walks the frame sequence in data and returns the decoded
// events plus the byte length of the good prefix; decoding stops (without
// error) at the first torn frame.
func scanSpill(data []byte) ([]Event, int) {
	var out []Event
	off := 0
	for {
		payload, n, ok := frame.Next(data[off:])
		if !ok {
			return out, off
		}
		ev, err := decodeSpillEvent(payload)
		if err != nil {
			return out, off
		}
		out = append(out, ev)
		off += n
	}
}

// OpenSpill opens (creating if absent) a crash-tolerant spill file,
// trims any torn tail, and returns a recorder that appends subsequent
// events to it, plus the events that survived from earlier runs.  The
// new recorder's sequence numbers continue after the recovered ones.
func OpenSpill(path string, ringSize int) (*Recorder, []Event, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("flight: open spill: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("flight: read spill: %w", err)
	}
	prior, good := scanSpill(data)
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("flight: trim spill torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("flight: seek spill: %w", err)
	}
	r := NewRecorder(ringSize)
	r.spill = &spillFile{f: f, size: int64(good)}
	r.spillOn.Store(true)
	r.spillBytes.Store(int64(good))
	if n := len(prior); n > 0 {
		r.seq.Store(prior[n-1].Seq + 1)
	}
	return r, prior, nil
}

// ReadSpill loads the surviving events from a spill file without
// attaching to it (the llinspect path); a torn tail is silently ignored.
func ReadSpill(path string) ([]Event, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("flight: read spill: %w", err)
	}
	evs, _ := scanSpill(data)
	return evs, nil
}

// spillAppend buffers one encoded frame, flushing to the file once a
// batch has accumulated.
func (r *Recorder) spillAppend(ev *Event) {
	r.spillMu.Lock()
	defer r.spillMu.Unlock()
	if r.spill == nil {
		return
	}
	r.spill.buf = appendSpillFrame(r.spill.buf, ev)
	if len(r.spill.buf) >= spillFlushThreshold {
		r.flushLocked()
	}
}

// flushLocked writes the pending buffer; spillMu held.  Write errors
// drop the batch rather than wedging emitters — the recorder observes,
// it must never fail the flight it is recording.  A failed or short write
// may still leave part of a frame on the file, and a later batch appended
// after it would sit behind a torn frame that a reopen trims away.  So the
// file is cut back to its good prefix first; if that fails, spilling stops
// (the rule wal.FileDevice follows).
func (r *Recorder) flushLocked() {
	sp := r.spill
	if len(sp.buf) == 0 {
		return
	}
	n, err := sp.f.Write(sp.buf)
	if err == nil && n < len(sp.buf) {
		err = io.ErrShortWrite
	}
	sp.buf = sp.buf[:0]
	if err == nil {
		sp.size += int64(n)
		r.spillBytes.Add(int64(n))
		return
	}
	err = sp.f.Truncate(sp.size)
	if err == nil {
		_, err = sp.f.Seek(sp.size, io.SeekStart)
	}
	if err != nil {
		r.spillOn.Store(false)
		sp.f.Close()
		r.spill = nil
	}
}

// Sync flushes buffered frames and forces them to stable storage.
func (r *Recorder) Sync() error {
	if r == nil {
		return nil
	}
	r.spillMu.Lock()
	defer r.spillMu.Unlock()
	if r.spill == nil {
		return nil
	}
	r.flushLocked()
	if r.spill == nil {
		return nil
	}
	return r.spill.f.Sync()
}

// Close flushes and closes the spill file; the ring stays readable.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.spillOn.Store(false)
	r.spillMu.Lock()
	defer r.spillMu.Unlock()
	if r.spill == nil {
		return nil
	}
	r.flushLocked()
	if r.spill == nil {
		return nil
	}
	err := r.spill.f.Close()
	r.spill = nil
	return err
}
