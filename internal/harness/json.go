package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"logicallog/internal/obs"
)

// ReportSchema identifies the llbench JSON report format.  Bump only on
// incompatible changes; additive fields keep the version.
const ReportSchema = "llbench/v1"

// DefaultObs, when non-nil, is attached (as Options.Obs) to every engine the
// harness builds, so experiments feed the shared metrics registry that
// RunReport snapshots per experiment (cmd/llbench's -json and -metrics
// modes).  Mirrors DefaultRedoWorkers.
var DefaultObs *obs.Registry

// Report is llbench's machine-readable output: every experiment's result
// table plus a per-experiment metrics snapshot and wall time.
type Report struct {
	// Schema is always ReportSchema ("llbench/v1").
	Schema string `json:"schema"`
	// GoVersion records the toolchain that produced the report.
	GoVersion string `json:"go_version"`
	// Experiments lists results in the order run.
	Experiments []ExperimentResult `json:"experiments"`
}

// ExperimentResult is one experiment's outcome.
type ExperimentResult struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// WallMS is the experiment's wall-clock time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Table is the result table, cells pre-formatted exactly as the text
	// renderer prints them.
	Table TableResult `json:"table"`
	// Metrics is the obs registry snapshot taken after the experiment
	// (registry reset before each experiment; empty when no registry is
	// installed).
	Metrics obs.Snapshot `json:"metrics"`
}

// TableResult is the JSON shape of a result Table.
type TableResult struct {
	Title   string     `json:"title"`
	Paper   string     `json:"paper,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

func tableResult(t *Table) TableResult {
	return TableResult{
		Title:   t.Title,
		Paper:   t.Paper,
		Columns: t.Columns,
		Rows:    t.Rows,
		Notes:   t.Notes,
	}
}

// RunReport runs the given experiments and collects a Report.  Before each
// experiment the DefaultObs registry (if installed) is reset so its snapshot
// is attributable to that experiment alone.
func RunReport(exps []Experiment) (*Report, error) {
	rep := &Report{Schema: ReportSchema, GoVersion: runtime.Version()}
	for _, e := range exps {
		DefaultObs.Reset()
		start := time.Now()
		t, err := e.Run()
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", e.ID, err)
		}
		rep.Experiments = append(rep.Experiments, ExperimentResult{
			ID:      e.ID,
			Name:    e.Name,
			WallMS:  float64(time.Since(start).Microseconds()) / 1000,
			Table:   tableResult(t),
			Metrics: DefaultObs.Snapshot(),
		})
	}
	return rep, nil
}

// WriteJSON encodes the report, indented for diffable artifacts.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport decodes a report previously written by WriteJSON.  It rejects
// unknown fields so schema drift is caught rather than silently dropped;
// call ValidateReport for semantic checks.
func ReadReport(rd io.Reader) (*Report, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	rep := &Report{}
	if err := dec.Decode(rep); err != nil {
		return nil, fmt.Errorf("harness: report decode: %w", err)
	}
	return rep, nil
}

// ValidateReport checks the structural invariants consumers rely on: schema
// version, non-empty identifying fields, and rectangular tables (every row
// exactly as wide as its column header).
func ValidateReport(r *Report) error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("harness: report schema %q, want %q", r.Schema, ReportSchema)
	}
	if r.GoVersion == "" {
		return fmt.Errorf("harness: report missing go_version")
	}
	if len(r.Experiments) == 0 {
		return fmt.Errorf("harness: report has no experiments")
	}
	for i, e := range r.Experiments {
		if e.ID == "" || e.Name == "" {
			return fmt.Errorf("harness: experiment %d missing id or name", i)
		}
		if e.WallMS < 0 {
			return fmt.Errorf("harness: %s: negative wall_ms", e.ID)
		}
		if e.Table.Title == "" {
			return fmt.Errorf("harness: %s: table missing title", e.ID)
		}
		if len(e.Table.Columns) == 0 {
			return fmt.Errorf("harness: %s: table has no columns", e.ID)
		}
		for j, row := range e.Table.Rows {
			if len(row) != len(e.Table.Columns) {
				return fmt.Errorf("harness: %s: row %d has %d cells, want %d",
					e.ID, j, len(row), len(e.Table.Columns))
			}
		}
		if e.ID == "E11" {
			if err := validateShipMetrics(e); err != nil {
				return err
			}
		}
		if e.ID == "E13" {
			if err := validateDomainMetrics(e); err != nil {
				return err
			}
		}
		if e.ID == "E14" {
			if err := validateServerMetrics(e); err != nil {
				return err
			}
		}
		if err := validateFlightMetrics(e); err != nil {
			return err
		}
	}
	return nil
}

// validateDomainMetrics checks the domain-workload metrics consumers read
// from an E13 snapshot.  A report produced without a metrics registry has an
// empty snapshot, which stays valid; once any counter is present the domain
// family must be complete and the logical runs must have logged fewer bytes
// than the physiological baseline.
func validateDomainMetrics(e ExperimentResult) error {
	if len(e.Metrics.Counters) == 0 {
		return nil
	}
	for _, c := range []string{"domain.ops", "domain.logical_bytes", "domain.physio_bytes"} {
		if _, ok := e.Metrics.Counters[c]; !ok {
			return fmt.Errorf("harness: %s: metrics missing counter %q", e.ID, c)
		}
	}
	if e.Metrics.Counters["domain.ops"] <= 0 {
		return fmt.Errorf("harness: %s: domain.ops is zero", e.ID)
	}
	if e.Metrics.Counters["domain.logical_bytes"] >= e.Metrics.Counters["domain.physio_bytes"] {
		return fmt.Errorf("harness: %s: logical log bytes (%d) not below the physiological baseline (%d)",
			e.ID, e.Metrics.Counters["domain.logical_bytes"], e.Metrics.Counters["domain.physio_bytes"])
	}
	return nil
}

// validateServerMetrics checks the instant-recovery families consumers read
// from an E14 snapshot.  A report produced without a metrics registry has an
// empty snapshot, which stays valid; once any counter is present the e14.*,
// server.*, and recovery.ondemand.* families must be complete, traffic must
// have flowed, and — the headline claim — no sweep point may have served
// its first request slower than its full-redo twin.
func validateServerMetrics(e ExperimentResult) error {
	if len(e.Metrics.Counters) == 0 {
		return nil
	}
	for _, c := range []string{"e14.rows", "e14.first_serve_violations",
		"server.requests", "server.responses",
		"recovery.ondemand.demand_chains", "recovery.ondemand.background_chains",
		"recovery.ondemand.requires", "recovery.ondemand.demand_waits"} {
		if _, ok := e.Metrics.Counters[c]; !ok {
			return fmt.Errorf("harness: %s: metrics missing counter %q", e.ID, c)
		}
	}
	if e.Metrics.Counters["e14.rows"] <= 0 {
		return fmt.Errorf("harness: %s: e14.rows is zero", e.ID)
	}
	if v := e.Metrics.Counters["e14.first_serve_violations"]; v != 0 {
		return fmt.Errorf("harness: %s: %d sweep points served their first request no faster than full redo", e.ID, v)
	}
	if e.Metrics.Counters["server.requests"] <= 0 {
		return fmt.Errorf("harness: %s: server.requests is zero", e.ID)
	}
	if e.Metrics.Counters["server.responses"] <= 0 {
		return fmt.Errorf("harness: %s: server.responses is zero", e.ID)
	}
	if e.Metrics.Counters["recovery.ondemand.demand_chains"] <= 0 {
		return fmt.Errorf("harness: %s: no chain was ever redone on demand", e.ID)
	}
	return nil
}

// validateFlightMetrics checks the decision-provenance families in any
// experiment's snapshot.  Both are optional — a run without a flight
// recorder (or metrics registry) carries neither — but once any counter of
// a family is present the family must be complete: the flight.* trio must
// agree with itself (the ring cannot drop more events than were emitted),
// and the recovery.decide.* quartet must all be reported so consumers can
// sum decisions without guessing at absent kinds.
func validateFlightMetrics(e ExperimentResult) error {
	flightFamily := []string{"flight.events", "flight.ring_drops", "flight.spill_bytes"}
	if hasAnyCounter(e, flightFamily) {
		for _, c := range flightFamily {
			if _, ok := e.Metrics.Counters[c]; !ok {
				return fmt.Errorf("harness: %s: metrics missing counter %q", e.ID, c)
			}
			if e.Metrics.Counters[c] < 0 {
				return fmt.Errorf("harness: %s: counter %q is negative", e.ID, c)
			}
		}
		if e.Metrics.Counters["flight.ring_drops"] > e.Metrics.Counters["flight.events"] {
			return fmt.Errorf("harness: %s: flight.ring_drops (%d) exceeds flight.events (%d)",
				e.ID, e.Metrics.Counters["flight.ring_drops"], e.Metrics.Counters["flight.events"])
		}
	}
	decideFamily := []string{"recovery.decide.redo", "recovery.decide.skip_installed",
		"recovery.decide.skip_unexposed", "recovery.decide.voided"}
	if hasAnyCounter(e, decideFamily) {
		for _, c := range decideFamily {
			if _, ok := e.Metrics.Counters[c]; !ok {
				return fmt.Errorf("harness: %s: metrics missing counter %q", e.ID, c)
			}
			if e.Metrics.Counters[c] < 0 {
				return fmt.Errorf("harness: %s: counter %q is negative", e.ID, c)
			}
		}
	}
	return nil
}

func hasAnyCounter(e ExperimentResult, names []string) bool {
	for _, c := range names {
		if _, ok := e.Metrics.Counters[c]; ok {
			return true
		}
	}
	return false
}

// validateShipMetrics checks the replication metrics consumers read from an
// E11 snapshot.  A report produced without a metrics registry has an empty
// snapshot, which stays valid; once any counter is present the ship family
// must be complete.
func validateShipMetrics(e ExperimentResult) error {
	if len(e.Metrics.Counters) == 0 {
		return nil
	}
	for _, c := range []string{"ship.batches_sent", "ship.records_shipped", "ship.applied_ops", "ship.promotions"} {
		if _, ok := e.Metrics.Counters[c]; !ok {
			return fmt.Errorf("harness: %s: metrics missing counter %q", e.ID, c)
		}
	}
	for _, g := range []string{"ship.lag_lsn", "ship.lag_records"} {
		if _, ok := e.Metrics.Gauges[g]; !ok {
			return fmt.Errorf("harness: %s: metrics missing gauge %q", e.ID, g)
		}
	}
	for _, h := range []string{"ship.apply.ns", "ship.promotion.ns", "ship.batch.records"} {
		hs, ok := e.Metrics.Histograms[h]
		if !ok {
			return fmt.Errorf("harness: %s: metrics missing histogram %q", e.ID, h)
		}
		if hs.Count == 0 {
			return fmt.Errorf("harness: %s: histogram %q is empty", e.ID, h)
		}
	}
	return nil
}
