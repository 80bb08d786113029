package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenEvents is a small deterministic recovery-shaped trace: a
// coordinator lane with two phases and one worker lane whose chain span
// holds a decision instant, at fixed microsecond offsets.
func goldenEvents() []Event {
	const us = time.Microsecond
	return []Event{
		{Name: "restart", Lane: "recovery", TID: 1, Phase: "X", Start: 1 * us, Dur: us},
		{Name: "analysis", Lane: "recovery", TID: 1, Phase: "X", Start: 3 * us, Dur: us,
			Args: map[string]any{"analyzed_records": 18, "dirty_objects": 5}},
		{Name: "chain", Lane: "redo-worker-00", TID: 2, Phase: "X", Start: 5 * us, Dur: 2 * us,
			Args: map[string]any{"ops": 4}},
		{Name: "redo-decision", Lane: "redo-worker-00", TID: 2, Phase: "i", Depth: 1, Start: 6 * us,
			Args: map[string]any{"lsn": 7}},
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTraceEvents(&buf, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_trace.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := goldenEvents()
	if err := WriteChromeTraceEvents(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-trip: %d events, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Lane != w.Lane || g.Phase != w.Phase || g.Depth != w.Depth {
			t.Errorf("event %d: got %+v, want %+v", i, g, w)
		}
		// Timestamps survive the microsecond wire format to within rounding.
		if d := g.Start - w.Start; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("event %d start drift %v", i, d)
		}
		if d := g.Dur - w.Dur; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("event %d dur drift %v", i, d)
		}
	}
}

func TestReadChromeTraceBareArray(t *testing.T) {
	bare := `[
	 {"name": "thread_name", "ph": "M", "pid": 1, "tid": 4, "args": {"name": "redo"}},
	 {"name": "outer", "ph": "X", "ts": 0, "dur": 100, "pid": 1, "tid": 4},
	 {"name": "inner", "ph": "X", "ts": 10, "dur": 20, "pid": 1, "tid": 4},
	 {"name": "later", "ph": "X", "ts": 50, "dur": 10, "pid": 1, "tid": 4}
	]`
	evs, err := ReadChromeTrace(bytes.NewReader([]byte(bare)))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	depths := map[string]int{}
	for _, ev := range evs {
		if ev.Lane != "redo" {
			t.Errorf("lane = %q", ev.Lane)
		}
		depths[ev.Name] = ev.Depth
	}
	// Depth is recomputed from interval containment: inner and later both
	// nest inside outer.
	if depths["outer"] != 0 || depths["inner"] != 1 || depths["later"] != 1 {
		t.Errorf("depths = %v", depths)
	}
}

func TestReadChromeTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadChromeTrace(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("expected an error for non-JSON input")
	}
}
