package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Chrome trace_event export/import.  The produced file loads directly in
// chrome://tracing and https://ui.perfetto.dev: one process, one Chrome
// "thread" per lane, "X" complete events for spans and "i" instants for
// markers, timestamps in microseconds from the recording's start.

// Event is one timeline event: a span or an instant on a lane (one row
// per actor).  Start/Dur are offsets from the recording's start.
type Event struct {
	// Name is the span or instant name.
	Name string
	// Lane is the owning lane's name.
	Lane string
	// TID is the lane id (maps to the Chrome trace tid).
	TID int64
	// Phase is "X" for a complete span, "i" for an instant event.
	Phase string
	// Depth is the span's nesting depth within its lane (0 = top level).
	Depth int
	// Start is the offset from the recording's start.
	Start time.Duration
	// Dur is the span duration (0 for instants).
	Dur time.Duration
	// Args carries event annotations (counts, decisions).
	Args map[string]any
}

// End returns the event's end offset.
func (e Event) End() time.Duration { return e.Start + e.Dur }

// sortEvents orders events by start offset, ties broken by lane id, then
// name, so concurrent lanes export deterministically.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Start != evs[j].Start {
			return evs[i].Start < evs[j].Start
		}
		if evs[i].TID != evs[j].TID {
			return evs[i].TID < evs[j].TID
		}
		return evs[i].Name < evs[j].Name
	})
}

// tracePID is the constant pid stamped on every event (one process).
const tracePID = 1

// chromeEvent is the trace_event wire form.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level object form of a trace file.
type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteChromeTraceEvents encodes events as a Chrome trace_event JSON file.
// Output is deterministic for a fixed event set: lane metadata first (by
// tid), then events in (start, tid, name) order.
func WriteChromeTraceEvents(w io.Writer, events []Event) error {
	evs := make([]Event, len(events))
	copy(evs, events)
	sortEvents(evs)

	laneNames := make(map[int64]string)
	var tids []int64
	for _, ev := range evs {
		if _, ok := laneNames[ev.TID]; !ok {
			laneNames[ev.TID] = ev.Lane
			tids = append(tids, ev.TID)
		}
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })

	out := chromeTrace{DisplayTimeUnit: "ms"}
	for _, tid := range tids {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name",
			Ph:   "M",
			PID:  tracePID,
			TID:  tid,
			Args: map[string]any{"name": laneNames[tid]},
		})
	}
	for _, ev := range evs {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: ev.Name,
			Ph:   ev.Phase,
			TS:   float64(ev.Start) / float64(time.Microsecond),
			Dur:  float64(ev.Dur) / float64(time.Microsecond),
			PID:  tracePID,
			TID:  ev.TID,
			Args: ev.Args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// ReadChromeTrace parses a Chrome trace_event JSON file (either the
// top-level object form or a bare event array) back into events.  Span
// nesting depth, which the wire format leaves implicit, is recomputed per
// lane from interval containment.
func ReadChromeTrace(r io.Reader) ([]Event, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var obj chromeTrace
	if err := json.Unmarshal(data, &obj); err != nil {
		// Bare array form.
		if aerr := json.Unmarshal(data, &obj.TraceEvents); aerr != nil {
			return nil, fmt.Errorf("obs: not a chrome trace: %w", err)
		}
	}
	laneNames := make(map[int64]string)
	var evs []Event
	for _, ce := range obj.TraceEvents {
		switch ce.Ph {
		case "M":
			if ce.Name == "thread_name" {
				if n, ok := ce.Args["name"].(string); ok {
					laneNames[ce.TID] = n
				}
			}
		case "X", "i":
			evs = append(evs, Event{
				Name:  ce.Name,
				TID:   ce.TID,
				Phase: ce.Ph,
				Start: time.Duration(ce.TS * float64(time.Microsecond)),
				Dur:   time.Duration(ce.Dur * float64(time.Microsecond)),
				Args:  ce.Args,
			})
		}
	}
	for i := range evs {
		if n, ok := laneNames[evs[i].TID]; ok {
			evs[i].Lane = n
		}
	}
	sortEvents(evs)
	assignDepths(evs)
	return evs, nil
}

// assignDepths recomputes nesting depth per lane by sweeping the sorted
// events with a stack of open interval end times.  Events must be sorted by
// start (sortEvents).  At equal starts a longer span is the parent; the
// stable sort plus the dur tiebreak below keeps parents first.
func assignDepths(evs []Event) {
	byLane := make(map[int64][]int)
	for i := range evs {
		byLane[evs[i].TID] = append(byLane[evs[i].TID], i)
	}
	for _, idxs := range byLane {
		sort.SliceStable(idxs, func(a, b int) bool {
			ea, eb := evs[idxs[a]], evs[idxs[b]]
			if ea.Start != eb.Start {
				return ea.Start < eb.Start
			}
			return ea.Dur > eb.Dur
		})
		var open []time.Duration // end offsets of enclosing spans
		for _, i := range idxs {
			ev := &evs[i]
			for len(open) > 0 && open[len(open)-1] <= ev.Start {
				open = open[:len(open)-1]
			}
			ev.Depth = len(open)
			if ev.Phase == "X" {
				open = append(open, ev.End())
			}
		}
	}
}
