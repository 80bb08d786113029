package sim

import (
	"flag"
	"testing"
)

var (
	shipConfigFlag   = flag.String("ship.config", "", "explorer config name for TestShipScheduleReplay")
	shipScheduleFlag = flag.String("ship.schedule", "", "ship schedule for TestShipScheduleReplay")
)

// TestShipCrashExplorer sweeps the ship-schedule space for every engine
// configuration: primary crash + failover, standby crash + restart, and the
// four wire faults at shipped-batch boundaries.  Any failure prints a
// one-line repro command.
func TestShipCrashExplorer(t *testing.T) {
	t.Parallel()
	for _, cfg := range ExplorerConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := ExploreShip(cfg, sweepStride(t, 3))
			if err != nil {
				t.Fatalf("harness: %v", err)
			}
			t.Logf("%s: %d batch boundaries, %d schedules", rep.Config, rep.Boundaries, rep.Schedules)
			if rep.Boundaries < 20 {
				t.Errorf("only %d batch boundaries — the workload should ship far more", rep.Boundaries)
			}
			for _, f := range rep.Failures {
				t.Errorf("%s", f)
			}
		})
	}
}

// TestShipScheduleReplay re-runs a single ship schedule named on the command
// line; it is the target of ShipScheduleFailure.Repro.
func TestShipScheduleReplay(t *testing.T) {
	if *shipConfigFlag == "" && *shipScheduleFlag == "" {
		t.Skip("no -ship.config/-ship.schedule; this test replays explorer repros")
	}
	if *shipMixFlag != "" {
		if err := ReplayShipMixSchedule(*shipConfigFlag, *shipMixFlag, *shipScheduleFlag); err != nil {
			t.Fatalf("schedule %q (mix %q) on %q: %v\n", *shipScheduleFlag, *shipMixFlag, *shipConfigFlag, err)
		}
		return
	}
	if err := ReplayShipSchedule(*shipConfigFlag, *shipScheduleFlag); err != nil {
		t.Fatalf("schedule %q on %q: %v\n", *shipScheduleFlag, *shipConfigFlag, err)
	}
}

// TestShipScheduleParsing pins the schedule grammar the repro commands rely
// on.
func TestShipScheduleParsing(t *testing.T) {
	good := []string{"none", "", "primary-crash@0", "standby-crash@17", "ship@3:drop", "ship@0:reorder=0"}
	for _, text := range good {
		if _, err := parseShipSchedule(text); err != nil {
			t.Errorf("parseShipSchedule(%q): %v", text, err)
		}
	}
	bad := []string{"primary-crash@", "primary-crash@-1", "standby-crash@x", "ship@0:melt", "bogus"}
	for _, text := range bad {
		if _, err := parseShipSchedule(text); err == nil {
			t.Errorf("parseShipSchedule(%q) accepted", text)
		}
	}
	for _, sched := range []shipSchedule{
		{kind: "count"},
		{kind: "primary-crash", boundary: 4},
		{kind: "standby-crash", boundary: 0},
		{kind: "fault", token: "ship@2:dup"},
	} {
		back, err := parseShipSchedule(sched.String())
		if err != nil {
			t.Fatalf("round trip %q: %v", sched.String(), err)
		}
		if back.String() != sched.String() {
			t.Errorf("round trip %q -> %q", sched.String(), back.String())
		}
	}
}
