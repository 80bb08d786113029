package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"logicallog/internal/obs"
	"logicallog/internal/wal"
	"logicallog/internal/workload"
)

// Spans are recorded from the benchmark's own files, around its calls into
// each layer; nothing inside the engine is instrumented.  A span carries a
// name ("<layer>.<call>"), start and end as nanoseconds since the tracer's
// epoch, the id of the span that caused it and the id of the request it
// belongs to.  Spans stay in memory until the run ends.

// span is one recorded interval.
type span struct {
	ID     uint64
	Parent uint64 // 0 for a root
	Req    uint64
	Name   string
	Lane   int
	Start  int64
	End    int64

	// A detached span was caused by a span on another goroutine that could
	// not be passed down to it; adopt finds that span by tag afterwards.
	tag      string
	detached bool
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer owns the lanes of one traced repetition.  A nil *tracer (and the
// nil *lane it hands out) records nothing, so untraced repetitions run the
// same code with only a nil check added per call.
type tracer struct {
	epoch time.Time

	mu          sync.Mutex
	lanes       []*lane
	byGoroutine map[uint64]*lane
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byGoroutine: make(map[uint64]*lane)}
}

// lane is the span stack of one goroutine: begin pushes, end pops, and the
// top of the stack is the parent of the next span.  Only its goroutine
// touches it, so recording takes no lock.
type lane struct {
	t     *tracer
	id    int
	req   uint64
	spans []span
	open  []int
}

// lane registers the calling goroutine and returns its lane.  Layers that
// run on the caller's goroutine (the device beneath a Force) find the lane
// again through currentLane.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{t: t, id: len(t.lanes) + 1}
	t.lanes = append(t.lanes, l)
	t.byGoroutine[goroutineID()] = l
	return l
}

// currentLane returns the lane the calling goroutine registered, or nil.
func (t *tracer) currentLane() *lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byGoroutine[goroutineID()]
}

// goroutineID parses the id out of the stack header ("goroutine 12 [...").
// It costs about a microsecond, so only the device wrapper uses it, once
// per device write, and only in traced repetitions: the wal.Device
// interface gives the wrapper no other way to learn which client's Force it
// is running under.
func goroutineID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(string(fields[1]), 10, 64)
	return id
}

// setReq sets the request id stamped on the spans that follow.
func (l *lane) setReq(req uint64) {
	if l != nil {
		l.req = req
	}
}

// begin opens a span under the innermost open span of this lane and
// returns its handle for end; -1 on a nil lane.
func (l *lane) begin(name string) int {
	if l == nil {
		return -1
	}
	var parent uint64
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].ID
	}
	return l.push(parent, l.req, name)
}

// beginDetached opens a span whose cause ran on another goroutine; adopt
// resolves its parent and request id from the tag once the run is over.
func (l *lane) beginDetached(name, tag string) int {
	h := l.push(0, 0, name)
	l.spans[h].tag, l.spans[h].detached = tag, true
	return h
}

func (l *lane) push(parent, req uint64, name string) int {
	i := len(l.spans)
	l.spans = append(l.spans, span{
		ID:     uint64(l.id)<<32 | uint64(i+1),
		Parent: parent,
		Req:    req,
		Name:   name,
		Lane:   l.id,
		Start:  int64(time.Since(l.t.epoch)),
	})
	l.open = append(l.open, i)
	return i
}

// setTag marks the span as a possible parent of detached spans with the
// same tag.
func (l *lane) setTag(h int, tag string) {
	if l != nil && h >= 0 {
		l.spans[h].tag = tag
	}
}

// end closes the span begin returned; spans close innermost first.
func (l *lane) end(h int) {
	if l == nil || h < 0 {
		return
	}
	l.spans[h].End = int64(time.Since(l.t.epoch))
	l.open = l.open[:len(l.open)-1]
}

// spans returns every recorded span, ordered by start.  Call it after the
// goroutines that own the lanes have finished.
func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	adopt(out)
	return out
}

// adopt gives every detached span, in start order, the parent that caused
// it: a tagged span of the same tag that encloses it.  When several do (both
// clients asking for the same key at once) it takes the one that ends
// first, which leaves the longer one for a later detached span; each parent
// is used once.  spans must be ordered by start.
func adopt(spans []span) {
	hosts := make(map[string][]int) // tag -> candidate parents, by start
	for i, s := range spans {
		if s.tag != "" && !s.detached {
			hosts[s.tag] = append(hosts[s.tag], i)
		}
	}
	taken := make(map[int]bool)
	for i := range spans {
		b := &spans[i]
		if !b.detached {
			continue
		}
		list := hosts[b.tag]
		// A host that ended before b began encloses neither b nor
		// anything after it.
		for len(list) > 0 && spans[list[0]].End < b.Start {
			list = list[1:]
		}
		hosts[b.tag] = list
		best := -1
		for _, h := range list {
			if spans[h].Start > b.Start {
				break
			}
			if taken[h] || spans[h].End < b.End {
				continue
			}
			if best < 0 || spans[h].End < spans[best].End {
				best = h
			}
		}
		if best >= 0 {
			taken[best] = true
			b.Parent, b.Req = spans[best].ID, spans[best].Req
		}
	}
}

// checkSpans verifies the span forest is well formed: every span is closed,
// every parent exists (and every detached span found one), and every child
// lies inside its parent.
func checkSpans(spans []span) error {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts or was never closed", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			if s.detached {
				return fmt.Errorf("detached span %d (%s, %q) found no parent", s.ID, s.Name, s.tag)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) names a parent %d that was not recorded", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] lies outside its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// layerTime is one row of the layer table: what the spans of one name cost.
type layerTime struct {
	Name   string
	Count  int     `json:"count"`
	SelfUS float64 `json:"self_us"`  // total self time: span minus its children
	TotUS  float64 `json:"total_us"` // total span time
}

// selfTimes folds spans into the layer table.  Self time is a span's
// duration minus the durations of its direct children (children of one span
// run on one goroutine or behind one mutex, so they do not overlap).
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			out[s.Name] = lt
		}
		lt.Count++
		lt.TotUS += float64(s.dur()) / 1e3
		lt.SelfUS += float64(s.dur()-children[s.ID]) / 1e3
	}
	return out
}

// writeChromeTrace writes spans with the repository's own Chrome
// trace_event encoder (load the file in chrome://tracing or Perfetto, or
// render it with llinspect -timeline): one complete event per span, one tid
// per lane, with id, parent and request id in args.
func writeChromeTrace(w io.Writer, spans []span) error {
	events := make([]obs.Event, 0, len(spans))
	for _, s := range spans {
		events = append(events, obs.Event{
			Name: s.Name, Phase: "X",
			Lane: fmt.Sprintf("lane-%d", s.Lane), TID: int64(s.Lane),
			Start: time.Duration(s.Start), Dur: time.Duration(s.dur()),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	return obs.WriteChromeTraceEvents(w, events)
}

// tracedDevice is the benchmark's wal.Device: between start and stop it
// counts and times every durable append, and records a device.append span
// under whatever span the calling goroutine has open (the Force or install
// that caused the write).
type tracedDevice struct {
	wal.Device
	t *tracer

	mu        sync.Mutex
	recording bool
	counts    deviceCounts
	appendNS  []float64
}

// deviceCounts is what the device did during the timed phase.
type deviceCounts struct {
	appends, bytes int64
	appendP50US    float64
}

func (d *tracedDevice) Append(p []byte) error {
	d.mu.Lock()
	recording := d.recording
	d.mu.Unlock()
	if !recording {
		return d.Device.Append(p)
	}
	l := d.t.currentLane()
	h := l.begin("device.append")
	start := time.Now()
	err := d.Device.Append(p)
	ns := time.Since(start)
	l.end(h)
	d.mu.Lock()
	d.counts.appends++
	d.counts.bytes += int64(len(p))
	d.appendNS = append(d.appendNS, float64(ns))
	d.mu.Unlock()
	return err
}

// start begins counting, at the start of the timed phase.  Like stop it is
// a no-op on the nil device of an untraced repetition.
func (d *tracedDevice) start() {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.recording = true
	d.mu.Unlock()
}

// stop ends counting and returns what was counted.
func (d *tracedDevice) stop() deviceCounts {
	if d == nil {
		return deviceCounts{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recording = false
	d.counts.appendP50US = median(d.appendNS) / 1e3
	return d.counts
}

// tracedDomain is the backend handed to the server in traced repetitions:
// while recording it puts a core.call span around every Put and Get the
// server makes.  The server runs each request on its own goroutine and
// passes no request id down, so the span is detached and tagged with the
// operation and key; the client tags its server.request span the same way
// and adopt joins the two.
type tracedDomain struct {
	workload.Domain

	mu        sync.Mutex // the server serializes backend calls already
	recording bool
	lane      *lane
}

func newTracedDomain(inner workload.Domain, t *tracer) *tracedDomain {
	t.mu.Lock()
	l := &lane{t: t, id: len(t.lanes) + 1}
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return &tracedDomain{Domain: inner, lane: l}
}

// record turns span recording on for the timed phase and off after it.
func (d *tracedDomain) record(on bool) {
	d.mu.Lock()
	d.recording = on
	d.mu.Unlock()
}

func requestTag(put bool, key []byte) string {
	if put {
		return "put " + string(key)
	}
	return "get " + string(key)
}

func (d *tracedDomain) call(put bool, key []byte, fn func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.recording {
		fn()
		return
	}
	h := d.lane.beginDetached("core.call", requestTag(put, key))
	fn()
	d.lane.end(h)
}

func (d *tracedDomain) Put(key, val []byte) (err error) {
	d.call(true, key, func() { err = d.Domain.Put(key, val) })
	return err
}

func (d *tracedDomain) Get(key []byte) (v []byte, found bool, err error) {
	d.call(false, key, func() { v, found, err = d.Domain.Get(key) })
	return v, found, err
}
