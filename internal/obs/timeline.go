package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// RenderTimeline writes a text phase timeline of the given events: one
// section per lane with a proportional bar per span (indented by nesting
// depth), followed by a per-phase aggregate summary.  It is the terminal
// sibling of the Chrome trace export — llinspect's timeline subcommand and
// llrun's -metrics output both use it.
func RenderTimeline(w io.Writer, events []Event) {
	if len(events) == 0 {
		fmt.Fprintln(w, "(no trace events)")
		return
	}
	evs := make([]Event, len(events))
	copy(evs, events)
	sortEvents(evs)

	start := evs[0].Start
	end := start
	for _, ev := range evs {
		if ev.Start < start {
			start = ev.Start
		}
		if e := ev.End(); e > end {
			end = e
		}
	}
	total := end - start
	if total <= 0 {
		total = 1
	}
	fmt.Fprintf(w, "timeline: %d events over %s\n", len(evs), fmtDur(total))

	// Lanes in order of first event.
	var tids []int64
	seen := make(map[int64]bool)
	for _, ev := range evs {
		if !seen[ev.TID] {
			seen[ev.TID] = true
			tids = append(tids, ev.TID)
		}
	}

	const gutter = 32
	for _, tid := range tids {
		var lane []Event
		for _, ev := range evs {
			if ev.TID == tid {
				lane = append(lane, ev)
			}
		}
		fmt.Fprintf(w, "-- lane %s\n", lane[0].Lane)
		for _, ev := range lane {
			bar := renderBar(ev, start, total, gutter)
			label := strings.Repeat("  ", ev.Depth) + ev.Name
			dur := "·"
			if ev.Phase == "X" {
				dur = fmtDur(ev.Dur)
			}
			fmt.Fprintf(w, "  %-30s %10s %10s  |%s|%s\n",
				label, fmtDur(ev.Start-start), dur, bar, fmtArgs(ev.Args))
		}
	}

	// Aggregate by span name.
	type agg struct {
		name  string
		count int
		dur   time.Duration
	}
	byName := make(map[string]*agg)
	for _, ev := range evs {
		if ev.Phase != "X" {
			continue
		}
		a, ok := byName[ev.Name]
		if !ok {
			a = &agg{name: ev.Name}
			byName[ev.Name] = a
		}
		a.count++
		a.dur += ev.Dur
	}
	aggs := make([]*agg, 0, len(byName))
	for _, a := range byName {
		aggs = append(aggs, a)
	}
	sort.Slice(aggs, func(i, j int) bool {
		if aggs[i].dur != aggs[j].dur {
			return aggs[i].dur > aggs[j].dur
		}
		return aggs[i].name < aggs[j].name
	})
	fmt.Fprintf(w, "-- phase totals (sum of span durations; parallel spans overlap)\n")
	for _, a := range aggs {
		fmt.Fprintf(w, "  %-30s %10s  x%d\n", a.name, fmtDur(a.dur), a.count)
	}
}

// renderBar places the event on a fixed-width gutter scaled to the whole
// trace: '=' runs for spans, '!' for instants.  Columns are scaled in
// float64 and clamped, so a trace file with absurd timestamps or negative
// durations still renders inside the gutter.
func renderBar(ev Event, start, total time.Duration, width int) string {
	col := gutterCols(float64(ev.Start)-float64(start), total, width, 0, width-1)
	if ev.Phase != "X" {
		return strings.Repeat(" ", col) + "!" + strings.Repeat(" ", width-col-1)
	}
	span := gutterCols(float64(ev.Dur), total, width, 1, width-col)
	return strings.Repeat(" ", col) + strings.Repeat("=", span) + strings.Repeat(" ", width-col-span)
}

// gutterCols converts d nanoseconds of a total-long trace into columns of
// a width-column gutter, clamped to [lo, hi].
func gutterCols(d float64, total time.Duration, width, lo, hi int) int {
	c := d * float64(width) / float64(total)
	if c < float64(lo) {
		return lo
	}
	if c > float64(hi) {
		return hi
	}
	return int(c)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}

func fmtArgs(args map[string]any) string {
	if len(args) == 0 {
		return ""
	}
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, args[k])
	}
	return "  {" + strings.Join(parts, " ") + "}"
}
