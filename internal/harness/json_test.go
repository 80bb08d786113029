package harness

import (
	"bytes"
	"strings"
	"testing"

	"logicallog/internal/obs"
)

// fakeExperiments returns two cheap experiments so report tests do not pay
// for the real suite.
func fakeExperiments() []Experiment {
	mk := func(id string) Experiment {
		return Experiment{
			ID:   id,
			Name: id + " fake",
			Run: func() (*Table, error) {
				// Touch the registry so per-experiment snapshots have content.
				DefaultObs.Counter("fake.runs").Inc()
				t := &Table{ID: id, Title: id + " title", Columns: []string{"a", "b"}}
				t.AddRow(1, 2)
				return t, nil
			},
		}
	}
	return []Experiment{mk("F1"), mk("F2")}
}

func TestRunReportRoundTrip(t *testing.T) {
	DefaultObs = obs.NewRegistry()
	defer func() { DefaultObs = nil }()

	rep, err := RunReport(fakeExperiments())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(rep); err != nil {
		t.Fatalf("fresh report invalid: %v", err)
	}
	if len(rep.Experiments) != 2 || rep.Experiments[0].ID != "F1" {
		t.Fatalf("experiments = %+v", rep.Experiments)
	}
	// The registry is reset per experiment: each snapshot sees exactly one
	// fake.runs increment, not an accumulation.
	for _, er := range rep.Experiments {
		if n := er.Metrics.Counters["fake.runs"]; n != 1 {
			t.Errorf("%s: fake.runs = %d, want 1 (per-experiment reset)", er.ID, n)
		}
		if er.WallMS < 0 {
			t.Errorf("%s: wall_ms = %v", er.ID, er.WallMS)
		}
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(back); err != nil {
		t.Errorf("round-tripped report invalid: %v", err)
	}
	if back.Schema != ReportSchema || len(back.Experiments) != 2 {
		t.Errorf("round-trip = %+v", back)
	}
	if back.Experiments[1].Table.Rows[0][1] != "2" {
		t.Errorf("table cells lost: %+v", back.Experiments[1].Table)
	}
}

func TestReadReportRejectsUnknownFields(t *testing.T) {
	j := `{"schema": "llbench/v1", "go_version": "go", "surprise": 1, "experiments": []}`
	if _, err := ReadReport(strings.NewReader(j)); err == nil {
		t.Error("unknown top-level field must be rejected")
	}
}

func TestValidateReportRejections(t *testing.T) {
	good := func() *Report {
		return &Report{
			Schema:    ReportSchema,
			GoVersion: "go1.x",
			Experiments: []ExperimentResult{{
				ID: "E1", Name: "n",
				Table: TableResult{Title: "t", Columns: []string{"a"}, Rows: [][]string{{"1"}}},
			}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Report)
		want   string
	}{
		{"wrong schema", func(r *Report) { r.Schema = "llbench/v0" }, "schema"},
		{"missing go version", func(r *Report) { r.GoVersion = "" }, "go_version"},
		{"no experiments", func(r *Report) { r.Experiments = nil }, "no experiments"},
		{"missing id", func(r *Report) { r.Experiments[0].ID = "" }, "missing id"},
		{"negative wall", func(r *Report) { r.Experiments[0].WallMS = -1 }, "wall_ms"},
		{"untitled table", func(r *Report) { r.Experiments[0].Table.Title = "" }, "title"},
		{"no columns", func(r *Report) { r.Experiments[0].Table.Columns = nil }, "columns"},
		{"ragged row", func(r *Report) { r.Experiments[0].Table.Rows = [][]string{{"1", "2"}} }, "cells"},
	}
	if err := ValidateReport(good()); err != nil {
		t.Fatalf("baseline report invalid: %v", err)
	}
	for _, c := range cases {
		r := good()
		c.mutate(r)
		err := ValidateReport(r)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestValidateReportE11Metrics pins the replication-metric contract: an E11
// snapshot with any counters must carry the full ship family.
func TestValidateReportE11Metrics(t *testing.T) {
	shipMetrics := func() obs.Snapshot {
		return obs.Snapshot{
			Counters: map[string]int64{
				"ship.batches_sent":    10,
				"ship.records_shipped": 30,
				"ship.applied_ops":     30,
				"ship.promotions":      1,
			},
			Gauges: map[string]int64{"ship.lag_lsn": 0, "ship.lag_records": 0},
			Histograms: map[string]obs.HistogramSnapshot{
				"ship.apply.ns":      {Count: 10},
				"ship.promotion.ns":  {Count: 1},
				"ship.batch.records": {Count: 10},
			},
		}
	}
	good := func() *Report {
		tbl := &Table{ID: "E11", Title: "ship", Columns: []string{"a"}}
		tbl.AddRow(1)
		return &Report{
			Schema:    ReportSchema,
			GoVersion: "go0.0",
			Experiments: []ExperimentResult{{
				ID: "E11", Name: "ship", Table: tableResult(tbl), Metrics: shipMetrics(),
			}},
		}
	}
	if err := ValidateReport(good()); err != nil {
		t.Fatalf("complete ship metrics rejected: %v", err)
	}
	// An empty snapshot (no registry installed) stays valid.
	r := good()
	r.Experiments[0].Metrics = obs.Snapshot{}
	if err := ValidateReport(r); err != nil {
		t.Errorf("empty snapshot rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*obs.Snapshot)
		want   string
	}{
		{"missing counter", func(s *obs.Snapshot) { delete(s.Counters, "ship.batches_sent") }, "ship.batches_sent"},
		{"missing gauge", func(s *obs.Snapshot) { delete(s.Gauges, "ship.lag_records") }, "ship.lag_records"},
		{"missing histogram", func(s *obs.Snapshot) { delete(s.Histograms, "ship.apply.ns") }, "ship.apply.ns"},
		{"empty histogram", func(s *obs.Snapshot) { s.Histograms["ship.promotion.ns"] = obs.HistogramSnapshot{} }, "ship.promotion.ns"},
	}
	for _, c := range cases {
		r := good()
		c.mutate(&r.Experiments[0].Metrics)
		err := ValidateReport(r)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestRunReportRealExperiment smoke-tests the collector against one real
// (cheap) experiment end to end.
func TestRunReportRealExperiment(t *testing.T) {
	DefaultObs = obs.NewRegistry()
	defer func() { DefaultObs = nil }()
	e, ok := Find("E1")
	if !ok {
		t.Fatal("E1 not found")
	}
	rep, err := RunReport([]Experiment{e})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(rep); err != nil {
		t.Fatal(err)
	}
	m := rep.Experiments[0].Metrics
	if m.Histograms["wal.append.ns"].Count == 0 {
		t.Errorf("E1 metrics missing wal.append.ns: %v", m.Histograms)
	}
}

// TestValidateReportFlightMetrics pins the decision-provenance metric
// contract: any experiment snapshot carrying a flight.* or recovery.decide.*
// counter must carry that family completely, with a self-consistent ring
// (drops never exceed emitted events).
func TestValidateReportFlightMetrics(t *testing.T) {
	flightMetrics := func() obs.Snapshot {
		return obs.Snapshot{
			Counters: map[string]int64{
				"flight.events":                  120,
				"flight.ring_drops":              8,
				"flight.spill_bytes":             4096,
				"recovery.decide.redo":           40,
				"recovery.decide.skip_installed": 12,
				"recovery.decide.skip_unexposed": 3,
				"recovery.decide.voided":         0,
			},
		}
	}
	good := func() *Report {
		tbl := &Table{ID: "E8", Title: "redo", Columns: []string{"a"}}
		tbl.AddRow(1)
		return &Report{
			Schema:    ReportSchema,
			GoVersion: "go0.0",
			Experiments: []ExperimentResult{{
				ID: "E8", Name: "redo", Table: tableResult(tbl), Metrics: flightMetrics(),
			}},
		}
	}
	if err := ValidateReport(good()); err != nil {
		t.Fatalf("complete flight metrics rejected: %v", err)
	}
	// An empty snapshot (no recorder attached) stays valid, and so does a
	// snapshot carrying only one of the two families.
	r := good()
	r.Experiments[0].Metrics = obs.Snapshot{}
	if err := ValidateReport(r); err != nil {
		t.Errorf("empty snapshot rejected: %v", err)
	}
	r = good()
	for _, c := range []string{"recovery.decide.redo", "recovery.decide.skip_installed",
		"recovery.decide.skip_unexposed", "recovery.decide.voided"} {
		delete(r.Experiments[0].Metrics.Counters, c)
	}
	if err := ValidateReport(r); err != nil {
		t.Errorf("flight-only snapshot rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*obs.Snapshot)
		want   string
	}{
		{"missing flight counter", func(s *obs.Snapshot) { delete(s.Counters, "flight.ring_drops") }, "flight.ring_drops"},
		{"missing spill counter", func(s *obs.Snapshot) { delete(s.Counters, "flight.spill_bytes") }, "flight.spill_bytes"},
		{"missing decide counter", func(s *obs.Snapshot) { delete(s.Counters, "recovery.decide.voided") }, "recovery.decide.voided"},
		{"negative counter", func(s *obs.Snapshot) { s.Counters["flight.events"] = -1 }, "negative"},
		{"drops exceed events", func(s *obs.Snapshot) { s.Counters["flight.ring_drops"] = 500 }, "exceeds"},
	}
	for _, c := range cases {
		r := good()
		c.mutate(&r.Experiments[0].Metrics)
		err := ValidateReport(r)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestValidateReportE14Metrics pins the instant-recovery metric contract: an
// E14 snapshot with any counters must carry the e14.*, server.*, and
// recovery.ondemand.* families, with traffic flowing, at least one demand
// chain, and zero first-serve violations.
func TestValidateReportE14Metrics(t *testing.T) {
	serverMetrics := func() obs.Snapshot {
		return obs.Snapshot{
			Counters: map[string]int64{
				"e14.rows":                            5,
				"e14.first_serve_violations":          0,
				"server.requests":                     25,
				"server.responses":                    25,
				"recovery.ondemand.demand_chains":     5,
				"recovery.ondemand.background_chains": 1620,
				"recovery.ondemand.requires":          5,
				"recovery.ondemand.demand_waits":      0,
			},
		}
	}
	good := func() *Report {
		tbl := &Table{ID: "E14", Title: "instant recovery", Columns: []string{"a"}}
		tbl.AddRow(1)
		return &Report{
			Schema:    ReportSchema,
			GoVersion: "go0.0",
			Experiments: []ExperimentResult{{
				ID: "E14", Name: "instant recovery", Table: tableResult(tbl), Metrics: serverMetrics(),
			}},
		}
	}
	if err := ValidateReport(good()); err != nil {
		t.Fatalf("complete server metrics rejected: %v", err)
	}
	r := good()
	r.Experiments[0].Metrics = obs.Snapshot{}
	if err := ValidateReport(r); err != nil {
		t.Errorf("empty snapshot rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*obs.Snapshot)
		want   string
	}{
		{"missing rows", func(s *obs.Snapshot) { delete(s.Counters, "e14.rows") }, "e14.rows"},
		{"zero rows", func(s *obs.Snapshot) { s.Counters["e14.rows"] = 0 }, "e14.rows"},
		{"violation recorded", func(s *obs.Snapshot) { s.Counters["e14.first_serve_violations"] = 2 }, "no faster than full redo"},
		{"missing server family", func(s *obs.Snapshot) { delete(s.Counters, "server.responses") }, "server.responses"},
		{"no traffic", func(s *obs.Snapshot) { s.Counters["server.requests"] = 0 }, "server.requests"},
		{"missing ondemand family", func(s *obs.Snapshot) { delete(s.Counters, "recovery.ondemand.requires") }, "recovery.ondemand.requires"},
		{"no demand chains", func(s *obs.Snapshot) { s.Counters["recovery.ondemand.demand_chains"] = 0 }, "demand"},
	}
	for _, c := range cases {
		r := good()
		c.mutate(&r.Experiments[0].Metrics)
		err := ValidateReport(r)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}
