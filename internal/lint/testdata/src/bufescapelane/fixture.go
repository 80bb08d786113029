// Package wal is the lane half of the bufescape fixture: the analyzer
// switches to lane mode on the package name and matches the arena/lane
// types (arena, chunk, laneRec) by name, so the fixture needs no imports
// from the real module.
package wal

// chunk and laneRec stand in for the arena chunk and lane record.
type chunk struct {
	buf []byte
}

type arena struct {
	cur *chunk
}

// appendFrame hands out arena-backed memory; its results are the lane
// taint source.  The name is on the lane API allowlist, so the stores it
// performs internally are not reported.
func (a *arena) appendFrame(n int) []byte {
	off := len(a.cur.buf)
	a.cur.buf = append(a.cur.buf, make([]byte, n)...)
	return a.cur.buf[off:]
}

type laneRec struct {
	lsn   uint64
	frame []byte
}

// Log models the structure a leak would retain into.
type Log struct {
	stash  [][]byte
	recent []laneRec
}

// keepFrame is a private helper whose summary says it stores its
// parameter; callers handing it lane memory are the real leak sites.
func (l *Log) keepFrame(fr []byte) {
	l.stash = append(l.stash, fr)
}

// retainFrame stores an arena frame directly: invalid once the arena
// recycles the chunk.
func (l *Log) retainFrame(a *arena) {
	fr := a.appendFrame(8)
	l.stash = append(l.stash, fr) // want "arena-backed lane memory .* is retained here"
}

// retainViaHelper launders the frame through keepFrame — no store appears
// in this function, only the callee summary sees it.
func (l *Log) retainViaHelper(a *arena) {
	fr := a.appendFrame(8)
	l.keepFrame(fr) // want "arena-backed lane memory .* is retained here"
}

// retainRec stores a laneRec carrier whole; the frame inside aliases the
// arena just the same.
func (l *Log) retainRec(sr laneRec) {
	l.recent = append(l.recent, sr) // want "arena-backed lane memory .* is retained here"
}

// retainChunk stores chunk-backed memory reached through a pointer.
func (l *Log) retainChunk(c *chunk) {
	l.stash = append(l.stash, c.buf) // want "arena-backed lane memory .* is retained here"
}

// copyRec is the sanctioned pattern: an ellipsis append copies the bytes,
// breaking the alias (this is what stageThrough does).
func (l *Log) copyRec(sr laneRec) []byte {
	return append([]byte(nil), sr.frame...)
}

// statRec reads only scalars out of the carrier; copying sr.lsn retains
// nothing.
func statRec(sr laneRec) uint64 {
	return sr.lsn
}

// scrubFrame writes through its argument (MutatesParam).
func scrubFrame(p []byte) {
	for i := range p {
		p[i] = 0
	}
}

// redactRec mutates an appended frame through a helper: encoded frames are
// immutable once appended.
func redactRec(sr laneRec) {
	scrubFrame(sr.frame) // want "writes through arena-backed lane memory"
}

// retainJustified shows the documented escape hatch.
func (l *Log) retainJustified(a *arena) {
	fr := a.appendFrame(8)
	//lint:ignore bufescape fixture: modelling a deliberately pinned frame whose chunk is never recycled
	l.stash = append(l.stash, fr)
}
