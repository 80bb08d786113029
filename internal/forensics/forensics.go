// Package forensics reconstructs recovery decision provenance from the two
// durable observability artifacts logicallog leaves behind after a crash: the
// write-ahead log itself and the flight recorder's spill file
// (internal/obs/flight).  It answers the question "why was this record
// redone (or skipped)?" with the concrete witness the redo predicate saw —
// the installed version that beat it or the dirty-table entry that exposed
// it — and renders compact forensic dumps and merged timelines for the crash
// explorers and llinspect.
//
// Everything here is read-only and log-derived: Explain re-derives the dirty
// object table by replaying analysis over the scanned records, so it works
// on a bare WAL file even when no flight events were captured (the flight
// event, when present, upgrades the explanation from "what the log implies"
// to "what the recovery pass actually decided").
package forensics

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/wal"
)

// Explanation is the reconstructed decision chain for one log record.
type Explanation struct {
	// LSN is the record being explained.
	LSN op.SI
	// Record is the record at that LSN (never nil).
	Record *wal.Record
	// Decision is the flight-recorded redo decision for the LSN, or
	// flight.DecNone when no flight event covers it (the explanation then
	// rests on log-derived provenance alone).
	Decision flight.Decision
	// Event is the flight event the Decision came from (nil if none).
	Event *flight.Event
	// Lines is the rendered decision chain, one finding per line.
	Lines []string
}

// String renders the explanation as a multi-line report.
func (x *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lsn=%d %s\n", x.LSN, recordLabel(x.Record))
	for _, ln := range x.Lines {
		fmt.Fprintf(&b, "  %s\n", ln)
	}
	return b.String()
}

func recordLabel(rec *wal.Record) string {
	switch rec.Type {
	case wal.RecOperation:
		return fmt.Sprintf("op %s", rec.Op)
	case wal.RecInstall:
		return fmt.Sprintf("install ops=%v", rec.Install.Ops)
	case wal.RecFlush:
		return fmt.Sprintf("flush %s vSI=%d", rec.Flush.Object, rec.Flush.VSI)
	case wal.RecCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("type=%v", rec.Type)
	}
}

// Explain reconstructs the decision chain for the record at lsn.  recs is
// the scanned log (ascending LSN, as wal.Log.Scan yields it); events is the
// flight record (ring or spill), possibly empty.  The returned explanation
// combines the flight-recorded decision (when one covers the LSN) with
// provenance re-derived from the log alone: the dirty-object-table state the
// analysis pass would have built just before the LSN and the install record
// that installed the operation (if any).
func Explain(recs []*wal.Record, events []flight.Event, lsn op.SI) (*Explanation, error) {
	var target *wal.Record
	for _, rec := range recs {
		if rec.LSN == lsn {
			target = rec
			break
		}
	}
	if target == nil {
		return nil, fmt.Errorf("forensics: no record at LSN %d (log covers %d records)", lsn, len(recs))
	}
	x := &Explanation{LSN: lsn, Record: target, Decision: flight.DecNone}

	// The flight-recorded decision, if the recorder saw this LSN.  Take
	// the latest matching event: a standby may re-decide after a rewind,
	// and the last word is the one that stuck.
	for i := range events {
		ev := &events[i]
		if ev.Kind == flight.KindRedoDecision && ev.LSN == lsn {
			x.Event = ev
			x.Decision = ev.Dec
		}
	}

	if target.Type == wal.RecOperation {
		explainOperation(x, recs, events)
	} else {
		x.Lines = append(x.Lines,
			fmt.Sprintf("bookkeeping record (%s): not subject to a redo decision", recordLabel(target)))
	}
	return x, nil
}

func explainOperation(x *Explanation, recs []*wal.Record, events []flight.Event) {
	// Re-derive the dirty object table exactly as the analysis pass builds
	// it: over the whole log (a checkpoint record restates the table, so
	// replaying every record is equivalent to starting at the last one).
	// The redo predicate consults this end-of-log table — a later install
	// that cleaned an object explains a skip of an earlier record.
	dot := make(map[op.ObjectID]op.SI)
	for _, rec := range recs {
		recovery.UpdateDirtyTable(dot, rec, recovery.TestRSI)
	}

	if x.Event != nil {
		ev := x.Event
		switch ev.Dec {
		case flight.DecRedo:
			if ev.Object != "" {
				x.Lines = append(x.Lines, fmt.Sprintf(
					"decision (%s): redone — object %s dirtied at LSN %d, record LSN %d ≥ rSI %d, and no installed version beat it",
					ev.Actor, ev.Object, ev.Ref, x.LSN, ev.Ref))
			} else {
				x.Lines = append(x.Lines, fmt.Sprintf(
					"decision (%s): redone — predicate requires no witness (redo-all or vSI mode)", ev.Actor))
			}
		case flight.DecSkipInstalled:
			x.Lines = append(x.Lines, fmt.Sprintf(
				"decision (%s): skipped — object %s version %d ≥ record version %d (a newer write is already installed)",
				ev.Actor, ev.Object, ev.Ref, x.LSN))
		case flight.DecSkipUnexposed:
			x.Lines = append(x.Lines, fmt.Sprintf(
				"decision (%s): skipped — no writeset object of LSN %d is both possibly uninstalled and exposed (the write was never exposed, or a later install already covers it)",
				ev.Actor, x.LSN))
		case flight.DecVoided:
			x.Lines = append(x.Lines, fmt.Sprintf(
				"decision (%s): redo selected but the trial execution voided — effects already equal current state", ev.Actor))
		}
	} else {
		x.Lines = append(x.Lines, "no flight decision recorded for this LSN (recorder off, ring-evicted, or pre-crash); provenance below is log-derived")
	}

	// Dirty-table provenance for each writeset object, against the table
	// the redo predicate actually consulted.
	for _, obj := range x.Record.Op.WriteSet {
		if rsi, dirty := dot[obj]; dirty {
			rel := "≥"
			verdict := "possibly uninstalled, exposed to redo"
			if x.LSN < rsi {
				rel, verdict = "<", "this update already covered by a later install"
			}
			x.Lines = append(x.Lines, fmt.Sprintf(
				"analysis dirty table: %s dirty since LSN %d (record LSN %s rSI → %s)",
				obj, rsi, rel, verdict))
		} else {
			x.Lines = append(x.Lines, fmt.Sprintf(
				"analysis dirty table: %s clean at end of log (every update installed or never written)", obj))
		}
	}

	// Install provenance: the install record that logged this op as
	// installed, if any.
	for _, rec := range recs {
		if rec.Type != wal.RecInstall {
			continue
		}
		for _, installed := range rec.Install.Ops {
			if installed == x.LSN {
				x.Lines = append(x.Lines, fmt.Sprintf(
					"installed by install record at LSN %d (ops %v)", rec.LSN, rec.Install.Ops))
			}
		}
	}

	// Install-graph and ship lineage from the flight record.
	for i := range events {
		ev := &events[i]
		if ev.LSN != x.LSN {
			continue
		}
		switch ev.Kind {
		case flight.KindValueResolve:
			x.Lines = append(x.Lines, fmt.Sprintf(
				"install graph: oracle resolved %s from this record's value", ev.Object))
		case flight.KindShipApply:
			x.Lines = append(x.Lines, fmt.Sprintf(
				"ship: standby %s (want=%d)", ev.Dec, ev.Ref))
		}
	}
}

// Dump renders a compact forensic dump: the last max events (all of them if
// max <= 0), one line each, newest last.  It is what the crash explorers
// attach to a failing schedule's repro output.
func Dump(events []flight.Event, max int) string {
	if len(events) == 0 {
		return "flight dump: no events recorded\n"
	}
	evs := make([]flight.Event, len(events))
	copy(evs, events)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	shown := evs
	if max > 0 && len(evs) > max {
		shown = evs[len(evs)-max:]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight dump: last %d of %d events\n", len(shown), len(evs))
	for _, ev := range shown {
		fmt.Fprintf(&b, "  [+%9s] %s\n", fmtAt(ev.At), ev)
	}
	return b.String()
}

// MergeTimeline converts flight events to timeline events and merges them
// with trace events (nil when the flight events are the whole record), so
// obs.RenderTimeline shows decisions inline with the phases that made them.
// A phase event becomes an "X" span [At − N, At] on its actor's row; every
// other event is an instant on the actor's "flight/" row.  A row named like
// a trace lane shares it; new rows get TIDs above the trace's.
func MergeTimeline(fl []flight.Event, trace []obs.Event) []obs.Event {
	out := make([]obs.Event, 0, len(trace)+len(fl))
	out = append(out, trace...)
	var maxTID int64
	laneTID := make(map[string]int64)
	for _, ev := range trace {
		maxTID = max(maxTID, ev.TID)
		laneTID[ev.Lane] = ev.TID
	}
	for _, ev := range fl {
		te := obs.Event{Lane: "flight/" + ev.Actor, Phase: "i", Start: ev.At,
			Name: ev.Kind.String(), Args: map[string]any{"seq": ev.Seq}}
		if ev.Kind == flight.KindPhase {
			te.Lane, te.Phase, te.Name = ev.Actor, "X", ev.Dec.String()
			te.Dur = time.Duration(ev.N)
			te.Start -= te.Dur
		} else if ev.Dec != flight.DecNone {
			te.Name += " " + ev.Dec.String()
		}
		tid, ok := laneTID[te.Lane]
		if !ok {
			maxTID++
			tid = maxTID
			laneTID[te.Lane] = tid
		}
		te.TID = tid
		if ev.LSN != op.NilSI {
			te.Args["lsn"] = uint64(ev.LSN)
		}
		if ev.Ref != op.NilSI {
			te.Args["ref"] = uint64(ev.Ref)
		}
		if ev.Object != "" {
			te.Args["obj"] = string(ev.Object)
		}
		if ev.N != 0 && ev.Kind != flight.KindPhase {
			te.Args["n"] = ev.N
		}
		out = append(out, te)
	}
	return out
}

func fmtAt(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}
