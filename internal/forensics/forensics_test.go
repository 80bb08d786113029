package forensics_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/fault"
	"logicallog/internal/forensics"
	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/wal"
	"logicallog/internal/writegraph"
)

// TestExplainEndToEnd is the acceptance test for -explain: crash a workload
// via a fault plan, recover with the flight recorder spilling to disk, then
// assert that Explain names the decision — with a concrete reason — that the
// recovery pass recorded for every operation record, and that those
// decisions tally to the counts Recover returned.
func TestExplainEndToEnd(t *testing.T) {
	spillPath := filepath.Join(t.TempDir(), "flight.bin")
	rec, recovered, err := flight.OpenSpill(spillPath, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh spill recovered %d events", len(recovered))
	}

	pts, err := fault.ParseToken("wal@14:crash")
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(pts...)

	opts := core.DefaultOptions()
	opts.LogDevice = plan.WrapDevice(wal.NewMemDevice())
	opts.Flight = rec
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: create a "keeper" object that stays dirty for the whole
	// run — its rSI of 1 drags the redo scan back over everything — then
	// create a and b and install exactly their nodes.  The a/b create
	// records stay in the log below installed stable versions:
	// skip-installed territory.
	objs := []op.ObjectID{"a", "b"}
	if err := eng.Execute(op.NewCreate("keeper", []byte("k0"))); err != nil {
		t.Fatal(err)
	}
	for _, x := range objs {
		if err := eng.Execute(op.NewCreate(x, []byte("v0-"+string(x)))); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range objs {
		id, ok := eng.Cache().WriteGraph().NodeOf(x)
		if !ok {
			t.Fatalf("no write-graph node for %s", x)
		}
		if _, err := eng.Cache().InstallNode(id); err != nil {
			t.Fatalf("install %s: %v", x, err)
		}
	}

	// Phase 2: dirty the objects again and force each record durable, so
	// these survive the crash with nothing installed over them: redo
	// territory.  Keep going until the armed fault kills the device.
	faulted := false
	for i := 0; i < 100 && !faulted; i++ {
		x := objs[i%len(objs)]
		if err := eng.Execute(op.NewPhysioWrite(x, op.FuncAppend, []byte{byte(2 + i)})); err != nil {
			faulted = true
			break
		}
		if err := eng.Log().Force(); err != nil {
			faulted = true
		}
	}
	if !faulted {
		t.Fatal("fault plan never fired")
	}
	eng.Crash()
	plan.Heal()

	// Recover with the flight recorder feeding the spill.
	res, err := recovery.Recover(eng.Log(), eng.Store(), recovery.Options{
		Test: recovery.TestRSI,
		Cache: cache.Config{
			Policy:      writegraph.PolicyRW,
			Strategy:    cache.StrategyIdentityWrite,
			LogInstalls: true,
			Registry:    eng.Registry(),
		},
		Flight: rec,
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := rec.Sync(); err != nil {
		t.Fatal(err)
	}

	events, err := flight.ReadSpill(spillPath)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := eng.Log().Scan(eng.Log().FirstLSN())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}

	// The spill's redo-decision events are the oracle: one per operation
	// record, tallying to the decision counts Recover returned.
	oracle := make(map[op.SI]flight.Decision)
	var tally recovery.Result
	for _, ev := range events {
		if ev.Kind != flight.KindRedoDecision {
			continue
		}
		if _, dup := oracle[ev.LSN]; dup {
			t.Fatalf("lsn=%d decided twice", ev.LSN)
		}
		oracle[ev.LSN] = ev.Dec
		switch ev.Dec {
		case flight.DecRedo:
			tally.Redone++
		case flight.DecSkipInstalled:
			tally.SkippedInstalled++
		case flight.DecSkipUnexposed:
			tally.SkippedUnexposed++
		case flight.DecVoided:
			tally.Voided++
		default:
			t.Fatalf("lsn=%d: unknown redo decision %s", ev.LSN, ev.Dec)
		}
	}
	if len(oracle) == 0 {
		t.Fatal("spill holds no redo decisions")
	}
	if tally.Redone != res.Redone || tally.SkippedInstalled != res.SkippedInstalled ||
		tally.SkippedUnexposed != res.SkippedUnexposed || tally.Voided != res.Voided {
		t.Errorf("spilled decisions %+v disagree with Recover's counts %+v", tally, res)
	}

	seen := make(map[flight.Decision]int)
	for lsn, want := range oracle {
		x, err := forensics.Explain(recs, events, lsn)
		if err != nil {
			t.Fatalf("explain lsn=%d: %v", lsn, err)
		}
		if x.Decision != want {
			t.Errorf("lsn=%d: explain decision %s, recovery decided %s\n%s", lsn, x.Decision, want, x)
		}
		out := x.String()
		switch want {
		case flight.DecSkipInstalled:
			if !strings.Contains(out, "already installed") || !strings.Contains(out, "≥ record version") {
				t.Errorf("lsn=%d: skip-installed explanation lacks the witness reason:\n%s", lsn, out)
			}
		case flight.DecRedo:
			if !strings.Contains(out, "redone") || !strings.Contains(out, "dirtied at LSN") {
				t.Errorf("lsn=%d: redo explanation lacks the dirty-table reason:\n%s", lsn, out)
			}
		case flight.DecSkipUnexposed:
			if !strings.Contains(out, "never exposed") {
				t.Errorf("lsn=%d: skip-unexposed explanation lacks the reason:\n%s", lsn, out)
			}
		}
		seen[want]++
	}
	// The workload is built to exercise both main branches; if either is
	// missing the test has stopped testing what it claims to.
	if seen[flight.DecSkipInstalled] == 0 {
		t.Error("workload produced no skip-installed decisions")
	}
	if seen[flight.DecRedo] == 0 {
		t.Error("workload produced no redo decisions")
	}
}

func TestExplainUnknownLSN(t *testing.T) {
	if _, err := forensics.Explain(nil, nil, 7); err == nil {
		t.Fatal("want error for unknown LSN")
	}
}

func TestDumpOrdersAndTruncates(t *testing.T) {
	var events []flight.Event
	for i := 4; i >= 0; i-- { // deliberately out of order
		events = append(events, flight.Event{
			Seq:  uint64(i),
			At:   time.Duration(i) * time.Millisecond,
			Kind: flight.KindCheckpoint,
			LSN:  op.SI(10 + i),
			N:    1,
		})
	}
	out := forensics.Dump(events, 3)
	if !strings.Contains(out, "last 3 of 5 events") {
		t.Errorf("dump header wrong:\n%s", out)
	}
	if strings.Contains(out, "lsn=10") || !strings.Contains(out, "lsn=14") {
		t.Errorf("dump must keep the newest events:\n%s", out)
	}
	if i2, i4 := strings.Index(out, "#2"), strings.Index(out, "#4"); i2 < 0 || i4 < 0 || i2 > i4 {
		t.Errorf("dump must sort by sequence:\n%s", out)
	}
	if forensics.Dump(nil, 10) != "flight dump: no events recorded\n" {
		t.Error("empty dump wording changed")
	}
}

func TestMergeTimelineLanesAndInstants(t *testing.T) {
	trace := []obs.Event{
		{Name: "restart", Lane: "recovery", TID: 1, Phase: "X", Start: 0, Dur: time.Millisecond},
	}
	fl := []flight.Event{
		{Seq: 0, At: 100 * time.Microsecond, Kind: flight.KindRedoDecision, Dec: flight.DecRedo, LSN: 3, Actor: "recovery"},
		{Seq: 1, At: 200 * time.Microsecond, Kind: flight.KindCheckpoint, LSN: 9, N: 2, Actor: "ckpt"},
	}
	merged := forensics.MergeTimeline(fl, trace)
	if len(merged) != 3 {
		t.Fatalf("merged %d events, want 3", len(merged))
	}
	lanes := make(map[string]int64)
	for _, ev := range merged[1:] {
		if ev.Phase != "i" {
			t.Errorf("flight event %q must be an instant, got phase %q", ev.Name, ev.Phase)
		}
		if ev.TID <= 1 {
			t.Errorf("flight lane %q TID %d collides with tracer TIDs", ev.Lane, ev.TID)
		}
		lanes[ev.Lane] = ev.TID
	}
	if len(lanes) != 2 {
		t.Errorf("want one lane per actor, got %v", lanes)
	}
	if merged[1].Name != "redo-decision redo" {
		t.Errorf("instant name = %q", merged[1].Name)
	}
	// Rendering must not panic and must show the flight lanes.
	var b strings.Builder
	obs.RenderTimeline(&b, merged)
	if !strings.Contains(b.String(), "flight/recovery") || !strings.Contains(b.String(), "flight/ckpt") {
		t.Errorf("timeline missing flight lanes:\n%s", b.String())
	}
}

// TestMergeTimelinePhaseSpans: a phase event becomes an "X" span ending at
// its At and lasting N on its actor's own row (shared with a trace lane of
// that name), while a decision of the same actor stays an instant on its
// "flight/" row.
func TestMergeTimelinePhaseSpans(t *testing.T) {
	const ms = time.Millisecond
	trace := []obs.Event{{Name: "setup", Lane: "recovery", TID: 4, Phase: "X", Dur: ms}}
	fl := []flight.Event{
		{Seq: 0, At: 3 * ms, Kind: flight.KindPhase, Dec: flight.DecAnalysis, LSN: 1, Ref: 40, N: int64(2 * ms), Actor: "recovery"},
		{Seq: 1, At: 5 * ms, Kind: flight.KindRedoDecision, Dec: flight.DecRedo, LSN: 7, Actor: "recovery"},
		{Seq: 2, At: 6 * ms, Kind: flight.KindPhase, Dec: flight.DecChain, LSN: 7, Ref: 9, N: int64(ms), Actor: "redo-worker-00"},
	}
	merged := forensics.MergeTimeline(fl, trace)
	if len(merged) != 4 {
		t.Fatalf("merged %d events, want 4", len(merged))
	}
	analysis, decision, chain := merged[1], merged[2], merged[3]
	if analysis.Name != "analysis" || analysis.Phase != "X" || analysis.Lane != "recovery" || analysis.TID != 4 ||
		analysis.Start != ms || analysis.Dur != 2*ms || analysis.Args["lsn"] != uint64(1) || analysis.Args["ref"] != uint64(40) {
		t.Errorf("analysis phase = %+v", analysis)
	}
	if decision.Phase != "i" || decision.Lane != "flight/recovery" || decision.TID <= 4 {
		t.Errorf("decision = %+v", decision)
	}
	if chain.Name != "chain" || chain.Phase != "X" || chain.Lane != "redo-worker-00" || chain.Start != 5*ms || chain.Dur != ms ||
		chain.TID <= 4 || chain.TID == decision.TID {
		t.Errorf("chain phase = %+v", chain)
	}
	if _, ok := chain.Args["n"]; ok {
		t.Errorf("a phase's N is its duration, not an arg: %v", chain.Args)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestForensicTimelineGolden pins the rendered forensic timeline — tracer
// spans merged with flight-decision instant rows — byte for byte.  Every
// input carries a fixed offset, so the render is deterministic.
func TestForensicTimelineGolden(t *testing.T) {
	trace := []obs.Event{
		{Name: "restart", Lane: "recovery", TID: 1, Phase: "X", Start: 0, Dur: 2 * time.Millisecond},
		{Name: "analysis", Lane: "recovery", TID: 1, Phase: "X", Start: 2 * time.Millisecond, Dur: 3 * time.Millisecond,
			Args: map[string]any{"analyzed_records": 18}},
		{Name: "chain", Lane: "redo-worker-00", TID: 2, Phase: "X", Start: 5 * time.Millisecond, Dur: 4 * time.Millisecond},
	}
	fl := []flight.Event{
		{Seq: 0, At: 5500 * time.Microsecond, Kind: flight.KindRedoDecision, Dec: flight.DecSkipInstalled,
			LSN: 12, Ref: 17, Object: "p3", Actor: "recovery"},
		{Seq: 1, At: 6 * time.Millisecond, Kind: flight.KindRedoDecision, Dec: flight.DecRedo,
			LSN: 14, Ref: 9, Object: "p5", Actor: "recovery"},
		{Seq: 2, At: 8 * time.Millisecond, Kind: flight.KindCheckpoint, LSN: 20, N: 3, Actor: "ckpt"},
		{Seq: 3, At: 8500 * time.Microsecond, Kind: flight.KindTruncate, LSN: 11, Actor: "ckpt"},
	}
	var buf bytes.Buffer
	obs.RenderTimeline(&buf, forensics.MergeTimeline(fl, trace))
	buf.WriteString(forensics.Dump(fl, 10))

	path := filepath.Join("testdata", "forensic_timeline.golden")
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
		t.Errorf("forensic timeline drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}
