package sim

import "testing"

// TestShipCrashExplorer sweeps the ship-schedule space for every engine
// configuration: primary crash + failover, standby crash + restart, and the
// four wire faults at shipped-batch boundaries.  Any failure prints a
// one-line repro command.
func TestShipCrashExplorer(t *testing.T) {
	t.Parallel()
	for _, cfg := range ExplorerConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			sweep(t, Target{Config: cfg, Ship: true}, sweepStride(t, 3))
		})
	}
}

// TestShipScheduleReplay replays one ship schedule from the repro token a
// failure printed:
//
//	go test ./internal/sim -run TestShipScheduleReplay \
//	    -explore.repro 'ship/rW-identity-rSI/primary-crash@42'
func TestShipScheduleReplay(t *testing.T) { replayRepro(t, true) }

// TestShipScheduleParsing pins the repro-token grammar: the spellings
// Replay accepts, each with its canonical token, and the inputs it must
// reject with an error before running anything.
func TestShipScheduleParsing(t *testing.T) {
	good := map[string]string{
		"ship/rW-identity-rSI/none":                     "ship/rW-identity-rSI/none",
		"ship/rW-identity-rSI/":                         "ship/rW-identity-rSI/none",
		" ship/physio-vSI/primary-crash@0 ":             "ship/physio-vSI/primary-crash@0",
		"ship/physio-vSI/standby-crash@17":              "ship/physio-vSI/standby-crash@17",
		"ship/physio-vSI/ship@3:drop":                   "ship/physio-vSI/ship@3:drop",
		"ship/physio-vSI/scan-heavy/ship@0:reorder=0":   "ship/physio-vSI/scan-heavy/ship@0:reorder=0",
		"crash/W-shadow-vSI/":                           "crash/W-shadow-vSI/none",
		"crash/W-shadow-vSI/wal@17:torn=3+stable@4:eio": "crash/W-shadow-vSI/wal@17:torn=3+stable@4:eio",
		"crash/W-shadow-vSI/keys=64,insert=100/none":    "crash/W-shadow-vSI/keys=64,insert=100/none",
	}
	for text, want := range good {
		tg, s, err := parseRepro(text)
		if err != nil {
			t.Errorf("parseRepro(%q): %v", text, err)
			continue
		}
		if got := (ScheduleFailure{Target: tg, Schedule: s.String()}).Token(); got != want {
			t.Errorf("parseRepro(%q) = %q, want %q", text, got, want)
		}
	}
	var bad []string
	for _, target := range []string{"ship/rW-identity-rSI/", "ship/rW-identity-rSI/write-burst/"} {
		for _, sched := range []string{"primary-crash@", "primary-crash@-1", "standby-crash@x", "ship@0:melt", "bogus"} {
			bad = append(bad, target+sched)
		}
	}
	for _, target := range []string{"crash/rW-identity-rSI/", "crash/rW-identity-rSI/write-burst/"} {
		for _, sched := range []string{"primary-crash@3", "standby-crash@0", "wal@x:crash", "wal@-1:crash", "wal@3:torn", "disk@3:crash", "wal3:crash", "bogus"} {
			bad = append(bad, target+sched)
		}
	}
	bad = append(bad,
		"", "none", "rW-identity-rSI/none", "crash/rW-identity-rSI/write-burst/none/none",
		"melt/rW-identity-rSI/none", "crash/nope/none", "ship/nope/write-burst/none",
		"crash/rW-identity-rSI/nope-mix/none", "ship/rW-identity-rSI//none", "crash/rW-identity-rSI/lookup=101/none",
	)
	for _, text := range bad {
		if err := Replay(text); err == nil {
			t.Errorf("Replay(%q) accepted", text)
		}
	}
}
