package flight

import (
	"fmt"
	"io"
	"os"
	"time"

	"logicallog/internal/frame"
	"logicallog/internal/op"
)

// Spill-file format: a sequence of internal/frame frames, each payload one
// Event in frame's field codec (seq, at-ns, kind, dec, lsn, ref, object, n,
// actor).  A reopen applies the WAL's torn-tail rule: scan frames from
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

// appendSpillFrame appends ev's frame to dst, encoding the payload in place.
func appendSpillFrame(dst []byte, ev *Event) []byte {
	start := len(dst)
	var hdr [frame.Overhead]byte
	p := frame.AppendUvarint(append(dst, hdr[:]...), ev.Seq)
	p = frame.AppendUvarint(p, uint64(ev.At))
	p = frame.AppendByte(p, byte(ev.Kind))
	p = frame.AppendByte(p, byte(ev.Dec))
	p = frame.AppendUvarint(p, uint64(ev.LSN))
	p = frame.AppendUvarint(p, uint64(ev.Ref))
	p = frame.AppendString(p, string(ev.Object))
	p = frame.AppendVarint(p, ev.N)
	p = frame.AppendString(p, ev.Actor)
	frame.Seal(p, start)
	return p
}

// decodeSpillEvent decodes one frame payload; any leftover or truncated
// field is an error (the caller treats it as a torn tail).
func decodeSpillEvent(p []byte) (Event, error) {
	d := frame.NewReader(p)
	ev := Event{
		Seq:    d.Uvarint(),
		At:     time.Duration(d.Uvarint()),
		Kind:   Kind(d.Byte()),
		Dec:    Decision(d.Byte()),
		LSN:    op.SI(d.Uvarint()),
		Ref:    op.SI(d.Uvarint()),
		Object: op.ObjectID(d.Str()),
		N:      d.Varint(),
		Actor:  d.Str(),
	}
	if err := d.Done(); err != nil {
		return Event{}, fmt.Errorf("flight: spill event: %w", err)
	}
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
