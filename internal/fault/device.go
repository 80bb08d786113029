package fault

import (
	"fmt"
	"math/rand"

	"logicallog/internal/frame"
	"logicallog/internal/wal"
)

// Device wraps a wal.Device, injecting the plan's ChanWAL points on Append.
// Reads (ReadAll, Size) and Close always pass through so recovery can
// inspect whatever the faulted device holds; Append and Rewrite fail while
// the plan is dead.
type Device struct {
	plan  *Plan
	inner wal.Device
}

// WrapDevice wraps d so its appends consult the plan.
func (p *Plan) WrapDevice(d wal.Device) *Device {
	return &Device{plan: p, inner: d}
}

func deadErr() error {
	return fmt.Errorf("fault: device stopped by earlier %w", ErrInjected)
}

// Append injects the fault armed at this WAL I/O index, if any.
func (d *Device) Append(p []byte) error {
	pt, dead := d.plan.advance(ChanWAL)
	if dead {
		return deadErr()
	}
	switch pt.Kind {
	case KindNone:
		return d.inner.Append(p)
	case KindTransient:
		return &TransientError{Chan: ChanWAL, Index: pt.Index}
	case KindCrash:
		return pt.failure()
	case KindTorn:
		n := pt.Arg
		if n < 0 {
			n = 0
		}
		if n > len(p) {
			n = len(p)
		}
		if n > 0 {
			if err := d.inner.Append(p[:n]); err != nil {
				return err
			}
		}
		return pt.failure()
	case KindBitFlip:
		c := append([]byte(nil), p...)
		if len(c) > 0 {
			bit := pt.Arg % (len(c) * 8)
			if bit < 0 {
				bit += len(c) * 8
			}
			c[bit/8] ^= 1 << (bit % 8)
		}
		if err := d.inner.Append(c); err != nil {
			return err
		}
		return pt.failure()
	case KindReorder:
		frames := splitFrames(p)
		if len(frames) <= 1 {
			// Nothing to reorder inside a single frame; plain crash.
			return pt.failure()
		}
		drop := pt.Arg % len(frames)
		if drop < 0 {
			drop += len(frames)
		}
		for i, f := range frames {
			if i == drop {
				continue
			}
			if err := d.inner.Append(f); err != nil {
				return err
			}
		}
		return pt.failure()
	}
	return fmt.Errorf("fault: point %s has unknown kind", pt)
}

// splitFrames cuts an append into its WAL frames; an undecodable remainder
// becomes the final chunk.
func splitFrames(p []byte) [][]byte {
	var out [][]byte
	rest := p
	for len(rest) > 0 {
		if _, n, ok := frame.Next(rest); ok {
			out = append(out, rest[:n])
			rest = rest[n:]
			continue
		}
		out = append(out, rest)
		break
	}
	return out
}

// ReadAll passes through: crashed devices can still be read at recovery.
func (d *Device) ReadAll() ([]byte, error) { return d.inner.ReadAll() }

// Size passes through.
func (d *Device) Size() (int64, error) { return d.inner.Size() }

// Rewrite passes through unless the plan is dead.  Rewrites happen at
// checkpoint truncation and recovery trim, which the explorer never faults
// directly — crash coverage there comes from the append boundaries around
// them.
func (d *Device) Rewrite(p []byte) error {
	if d.plan.Dead() {
		return deadErr()
	}
	return d.inner.Rewrite(p)
}

// Close passes through.
func (d *Device) Close() error { return d.inner.Close() }

// StableProbe returns the stable-store write probe for this plan (see
// stable.Store.SetWriteProbe).  Each consult counts one ChanStable I/O.
func (p *Plan) StableProbe() func() error {
	return func() error {
		pt, dead := p.advance(ChanStable)
		if dead {
			return deadErr()
		}
		switch pt.Kind {
		case KindNone:
			return nil
		case KindTransient:
			return &TransientError{Chan: ChanStable, Index: pt.Index}
		default:
			// Torn/flip/reorder make no sense for a yes/no probe; any
			// non-transient kind is a hard stop at this write.
			return pt.failure()
		}
	}
}

// FromSeed derives a small random schedule over a workload known to perform
// walIOs WAL appends and stableIOs stable writes: up to two transient
// points plus one terminal point, all replayable via Token.
func FromSeed(seed int64, walIOs, stableIOs int) []Point {
	rng := rand.New(rand.NewSource(seed))
	used := map[planKey]bool{}
	pick := func() (Channel, int) {
		var ch Channel
		var idx int
		// Prefer an unused index; a collision after bounded tries just
		// overwrites an earlier point (NewPlan keeps the last).
		for try := 0; try < 16; try++ {
			ch = ChanWAL
			n := walIOs
			if stableIOs > 0 && (walIOs <= 0 || rng.Intn(2) == 1) {
				ch, n = ChanStable, stableIOs
			}
			idx = rng.Intn(n)
			if !used[planKey{ch, idx}] {
				break
			}
		}
		used[planKey{ch, idx}] = true
		return ch, idx
	}
	if walIOs <= 0 && stableIOs <= 0 {
		return nil
	}
	var pts []Point
	for i := rng.Intn(3); i > 0; i-- {
		ch, idx := pick()
		pts = append(pts, Point{Chan: ch, Index: idx, Kind: KindTransient, Arg: 1 + rng.Intn(2)})
	}
	ch, idx := pick()
	term := Point{Chan: ch, Index: idx}
	if ch == ChanWAL {
		switch rng.Intn(4) {
		case 0:
			term.Kind = KindCrash
		case 1:
			term.Kind, term.Arg = KindTorn, 1+rng.Intn(64)
		case 2:
			term.Kind, term.Arg = KindBitFlip, rng.Intn(1<<12)
		default:
			term.Kind, term.Arg = KindReorder, rng.Intn(4)
		}
	} else {
		term.Kind = KindCrash
	}
	return append(pts, term)
}
