package wal

// The write-side analogue of the aliasing scan decoder: instead of giving
// every appended record a fresh heap allocation for its frame, the append
// lane encodes records in place into reusable fixed-capacity chunks.  A
// chunk is recycled once every frame it holds has been staged for the
// device, so steady-state append is allocation-flat.

const (
	// arenaChunkSize is the capacity of one encode chunk.
	arenaChunkSize = 128 << 10
	// arenaMinSpare rotates to a fresh chunk when less spare capacity than
	// this remains, so frames rarely straddle a chunk boundary.
	arenaMinSpare = 8 << 10
	// arenaFreeMax bounds the recycled-chunk freelist.
	arenaFreeMax = 4
)

// chunk is one fixed-capacity encode buffer.  len(buf) is the used prefix;
// live counts the frames inside it that have not yet been staged.
type chunk struct {
	buf  []byte
	live int
}

// arena hands out chunk space for frame encoding and recycles chunks whose
// frames have all been staged.  It is owned by the Log's append lane and
// guarded by the lane mutex.
type arena struct {
	cur  *chunk
	free []*chunk
}

// appendFrame encodes rec as a framed record, preferring in-place encoding
// into the current chunk.  It returns the frame and the chunk backing it;
// the chunk is nil when the frame outgrew the chunk and escaped to the heap.
// The caller must have validated rec.
func (a *arena) appendFrame(rec *Record) ([]byte, *chunk) {
	c := a.cur
	if c == nil || cap(c.buf)-len(c.buf) < arenaMinSpare {
		c = a.grab()
	}
	used := len(c.buf)
	out := AppendFrame(c.buf, rec)
	frame := out[used:len(out):len(out)]
	if len(out) > cap(c.buf) {
		// append outgrew the chunk and reallocated; the frame lives on the
		// heap and the chunk's used prefix is unchanged.
		return frame, nil
	}
	c.buf = out
	c.live++
	return frame, c
}

// grab returns a fresh current chunk, recycling from the freelist when one
// is available.
func (a *arena) grab() *chunk {
	var c *chunk
	if n := len(a.free); n > 0 {
		c = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		c = &chunk{buf: make([]byte, 0, arenaChunkSize)}
	}
	a.cur = c
	return c
}

// release records that one frame of c has been staged.  When a
// chunk's last frame is consumed its space is reclaimed: the current chunk
// rewinds in place, a retired chunk returns to the freelist.
func (a *arena) release(c *chunk) {
	if c == nil {
		return
	}
	c.live--
	if c.live > 0 {
		return
	}
	c.buf = c.buf[:0]
	if c != a.cur && len(a.free) < arenaFreeMax {
		a.free = append(a.free, c)
	}
}
