// Package fault is the deterministic fault-injection layer shared by the
// WAL device and the stable store.
//
// A Plan is a replayable schedule of fault Points, each naming an I/O
// channel (wal or stable), the zero-based index of the I/O on that channel,
// and the fault kind to inject there: hard crash, torn (partial) append,
// bit-flipped sector, reordered/dropped batch frame, or transient EIO.
// The same workload driven twice against equal plans sees byte-identical
// faults, so every failure the crash-schedule explorer finds is replayable
// from a one-line token (see Token/ParseToken).
//
// Non-transient faults are terminal: once one fires the plan is dead and
// every further injected write fails, modeling a machine that stops at the
// fault.  Heal revives a dead plan for the recovery phase of a trial.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"logicallog/internal/obs"
)

// Channel names one injected I/O stream.
type Channel uint8

const (
	// ChanWAL counts wal.Device.Append calls.
	ChanWAL Channel = iota
	// ChanStable counts stable-store batch write probes.
	ChanStable
	// ChanShip counts log-shipping batch sends (see internal/ship).
	ChanShip

	numChannels
)

func (c Channel) String() string {
	switch c {
	case ChanWAL:
		return "wal"
	case ChanStable:
		return "stable"
	case ChanShip:
		return "ship"
	}
	return fmt.Sprintf("chan%d", uint8(c))
}

func parseChannel(s string) (Channel, error) {
	switch s {
	case "wal":
		return ChanWAL, nil
	case "stable":
		return ChanStable, nil
	case "ship":
		return ChanShip, nil
	}
	return 0, fmt.Errorf("fault: unknown channel %q", s)
}

// Kind is the fault injected at a Point.
type Kind uint8

const (
	// KindNone marks an I/O with no fault armed; it passes through.
	KindNone Kind = iota
	// KindCrash fails the I/O after writing nothing (power cut before
	// the write reached the device).
	KindCrash
	// KindTorn writes only the first Arg bytes of the append, then
	// crashes.  Arg >= len(append) writes everything and loses only the
	// acknowledgement (the "committed but unacked" case).
	KindTorn
	// KindBitFlip writes the whole append with bit Arg (mod the append's
	// bit length) inverted, then crashes — a misdirected or rotted
	// sector.
	KindBitFlip
	// KindReorder splits the append into its WAL frames, drops frame
	// Arg (mod the frame count), writes the rest, then crashes — an
	// unsynced batch whose sectors were reordered so a middle write
	// never landed.  A single-frame append degenerates to KindCrash.
	KindReorder
	// KindTransient fails the I/O with a retryable EIO and writes
	// nothing; the device is fine afterwards.  Arg > 1 re-arms the fault
	// on the next Arg-1 I/Os too, so Arg consecutive attempts fail.
	KindTransient
	// KindDrop silently loses a ship batch: the send appears to succeed
	// on the wire but the receiver never sees it and no ack comes back.
	// Ship-channel only.
	KindDrop
	// KindDup delivers a ship batch twice, modeling a retransmit racing
	// its original.  Ship-channel only.
	KindDup
)

// ErrInjected is wrapped by every terminal injected failure, so callers can
// distinguish scheduled faults from real bugs with errors.Is.
var ErrInjected = errors.New("injected fault")

// TransientError is the retryable EIO produced by KindTransient points.
type TransientError struct {
	Chan  Channel
	Index int
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("fault: transient EIO at %s@%d", e.Chan, e.Index)
}

// Transient marks the error retryable (see wal.IsTransient).
func (e *TransientError) Transient() bool { return true }

// Point is one armed fault: inject Kind at the Index-th I/O on Chan.
type Point struct {
	Chan  Channel
	Index int
	Kind  Kind
	Arg   int
}

// String renders the point in token syntax, e.g. "wal@17:torn=3".
func (pt Point) String() string {
	var kind string
	switch pt.Kind {
	case KindNone:
		kind = "none"
	case KindCrash:
		kind = "crash"
	case KindTorn:
		kind = "torn=" + strconv.Itoa(pt.Arg)
	case KindBitFlip:
		kind = "flip=" + strconv.Itoa(pt.Arg)
	case KindReorder:
		kind = "reorder=" + strconv.Itoa(pt.Arg)
	case KindTransient:
		if pt.Arg <= 1 {
			kind = "eio"
		} else {
			kind = "eio=" + strconv.Itoa(pt.Arg)
		}
	case KindDrop:
		kind = "drop"
	case KindDup:
		kind = "dup"
	default:
		kind = fmt.Sprintf("kind%d", uint8(pt.Kind))
	}
	return fmt.Sprintf("%s@%d:%s", pt.Chan, pt.Index, kind)
}

// failure builds the terminal error for a fired point.
func (pt Point) failure() error {
	return fmt.Errorf("fault: %s: %w", pt, ErrInjected)
}

type planKey struct {
	ch  Channel
	idx int
}

// Plan is a replayable fault schedule.  It is safe for concurrent use; the
// wrapped device and the stable probe consult it on every I/O.
type Plan struct {
	mu     sync.Mutex
	spec   []Point // the schedule as armed, for Token()
	armed  map[planKey]Point
	counts [numChannels]int
	fired  []Point
	dead   bool
	healed bool
	obs    planObs
}

// planObs holds the plan's per-channel metric handles (nil when no registry
// is attached: every method is then a no-op).
type planObs struct {
	ios      [numChannels]*obs.Counter
	injected [numChannels]*obs.Counter
}

// SetObs attaches a metrics registry: the plan counts every I/O it observes
// ("fault.ios.<chan>") and every fault it injects ("fault.injected.<chan>").
// A nil registry detaches.
func (p *Plan) SetObs(r *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r == nil {
		p.obs = planObs{}
		return
	}
	for ch := Channel(0); ch < numChannels; ch++ {
		p.obs.ios[ch] = r.Counter("fault.ios." + ch.String())
		p.obs.injected[ch] = r.Counter("fault.injected." + ch.String())
	}
}

// NewPlan arms the given points.  Arming two points at the same
// channel+index keeps the last one.
func NewPlan(points ...Point) *Plan {
	p := &Plan{armed: make(map[planKey]Point, len(points))}
	p.spec = append(p.spec, points...)
	for _, pt := range points {
		p.armed[planKey{pt.Chan, pt.Index}] = pt
	}
	return p
}

// advance counts one I/O on ch and returns the point armed there (KindNone
// when the I/O is clean).  The second result reports a dead plan: the I/O
// must fail without being counted, because the machine already stopped.
func (p *Plan) advance(ch Channel) (Point, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return Point{}, true
	}
	if p.healed {
		// The faulty epoch is over: recovery-phase I/O passes through
		// without consuming schedule indices, so Count() keeps reporting
		// the workload's boundary space.
		return Point{Chan: ch, Index: p.counts[ch], Kind: KindNone}, false
	}
	idx := p.counts[ch]
	p.counts[ch]++
	p.obs.ios[ch].Inc()
	key := planKey{ch, idx}
	pt, ok := p.armed[key]
	if !ok {
		return Point{Chan: ch, Index: idx, Kind: KindNone}, false
	}
	delete(p.armed, key)
	p.fired = append(p.fired, pt)
	if pt.Kind != KindNone {
		p.obs.injected[ch].Inc()
	}
	if pt.Kind == KindTransient {
		if pt.Arg > 1 {
			// Fail the next retry too: Arg consecutive attempts.
			p.armed[planKey{ch, idx + 1}] = Point{
				Chan: ch, Index: idx + 1, Kind: KindTransient, Arg: pt.Arg - 1,
			}
		}
	} else if pt.Kind != KindNone && ch != ChanShip {
		// Ship faults are network events, not machine stops: a dropped,
		// duplicated, or reordered batch leaves both nodes running, and
		// even a ship "crash" only severs the link (see ship.Link).
		p.dead = true
	}
	return pt, false
}

// ShipPoint counts one batch send on the ship channel and returns the point
// armed there (KindNone when the send is clean).  Unlike WAL and stable
// faults, ship faults never kill the plan — the network misbehaving does not
// stop either machine.  The boolean reports a plan already dead from a
// terminal WAL or stable fault: the machine hosting the sender stopped, so
// the send must fail without being counted.
func (p *Plan) ShipPoint() (Point, bool) {
	return p.advance(ChanShip)
}

// Heal revives a dead plan so the recovery phase of a trial can run, and
// disarms any points that have not fired (recovery I/O must be clean).
// Counts and fired history are preserved, and counting stops: post-heal I/O
// is outside the schedule's boundary space.
func (p *Plan) Heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dead = false
	p.healed = true
	for k := range p.armed {
		delete(p.armed, k)
	}
}

// Dead reports whether a terminal fault has fired and the plan has not been
// healed.
func (p *Plan) Dead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead
}

// Count returns how many I/Os have been counted on ch.
func (p *Plan) Count(ch Channel) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(ch) >= int(numChannels) {
		return 0
	}
	return p.counts[ch]
}

// Fired returns the points that have fired, in firing order.
func (p *Plan) Fired() []Point {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Point(nil), p.fired...)
}

// Unfired returns armed points that have not fired yet.  A schedule whose
// workload completes with unfired points never reached its fault — usually
// a harness bug.
func (p *Plan) Unfired() []Point {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Point, 0, len(p.armed))
	for _, pt := range p.armed {
		out = append(out, pt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Chan != out[j].Chan {
			return out[i].Chan < out[j].Chan
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// Token renders the plan's schedule as a canonical one-line repro token,
// e.g. "wal@17:torn=3+stable@4:eio".  An empty schedule is "none".
// ParseToken(Token()) reconstructs the schedule exactly.
func (p *Plan) Token() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.spec) == 0 {
		return "none"
	}
	pts := append([]Point(nil), p.spec...)
	sort.SliceStable(pts, func(i, j int) bool {
		if pts[i].Chan != pts[j].Chan {
			return pts[i].Chan < pts[j].Chan
		}
		return pts[i].Index < pts[j].Index
	})
	parts := make([]string, len(pts))
	for i, pt := range pts {
		parts[i] = pt.String()
	}
	return strings.Join(parts, "+")
}

// ParseToken parses a repro token produced by Token back into fault points.
func ParseToken(token string) ([]Point, error) {
	token = strings.TrimSpace(token)
	if token == "" || token == "none" {
		return nil, nil
	}
	var pts []Point
	for _, part := range strings.Split(token, "+") {
		pt, err := parsePoint(part)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

func parsePoint(s string) (Point, error) {
	at := strings.IndexByte(s, '@')
	colon := strings.IndexByte(s, ':')
	if at < 0 || colon < at {
		return Point{}, fmt.Errorf("fault: malformed point %q (want chan@index:kind)", s)
	}
	ch, err := parseChannel(s[:at])
	if err != nil {
		return Point{}, err
	}
	idx, err := strconv.Atoi(s[at+1 : colon])
	if err != nil || idx < 0 {
		return Point{}, fmt.Errorf("fault: malformed index in %q", s)
	}
	kindStr, argStr := s[colon+1:], ""
	if eq := strings.IndexByte(kindStr, '='); eq >= 0 {
		kindStr, argStr = kindStr[:eq], kindStr[eq+1:]
	}
	pt := Point{Chan: ch, Index: idx}
	needArg := false
	switch kindStr {
	case "crash":
		pt.Kind = KindCrash
	case "torn":
		pt.Kind, needArg = KindTorn, true
	case "flip":
		pt.Kind, needArg = KindBitFlip, true
	case "reorder":
		pt.Kind, needArg = KindReorder, true
	case "eio":
		pt.Kind, pt.Arg = KindTransient, 1
	case "drop":
		pt.Kind = KindDrop
	case "dup":
		pt.Kind = KindDup
	default:
		return Point{}, fmt.Errorf("fault: unknown kind %q in %q", kindStr, s)
	}
	if argStr != "" {
		arg, err := strconv.Atoi(argStr)
		if err != nil {
			return Point{}, fmt.Errorf("fault: malformed argument in %q", s)
		}
		pt.Arg = arg
	} else if needArg {
		return Point{}, fmt.Errorf("fault: kind %q in %q requires an argument", kindStr, s)
	}
	return pt, nil
}
