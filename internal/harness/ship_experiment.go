package harness

import (
	"time"

	"logicallog/internal/core"
	"logicallog/internal/ship"
	"logicallog/internal/workload"
)

// E11ShipLag measures the replication subsystem: a primary runs a 400-op
// workload while a sender ships its log to a warm standby one batch per
// step, then the primary dies and the standby is promoted.  Smaller batches
// drain a durable backlog more slowly (higher peak lag, more batches on the
// wire); failover cost is independent of batch size because continuous redo
// already applied every shipped record.
func E11ShipLag() (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "replication lag and failover vs ship batch size (400-op workload)",
		Paper:   "Section 6 outlook (recovery as continuous redo)",
		Columns: []string{"batch records", "batches", "records applied", "peak lag (records)", "failover redo", "failover µs"},
	}
	for _, batch := range []int{1, 4, 16, 64} {
		opts := logicalOpts()
		eng, err := core.New(opts)
		if err != nil {
			return nil, err
		}
		sb, err := ship.NewStandby(ship.StandbyConfig{Opts: opts, TruncateOnCheckpoint: opts.LogInstalls})
		if err != nil {
			return nil, err
		}
		s := ship.NewSender(eng.Log(), ship.NewLink(sb, nil), 1, ship.SenderConfig{BatchRecords: batch})

		spec := workload.DefaultSpec(77)
		spec.Steps = 400
		gen, err := workload.NewGenerator(spec)
		if err != nil {
			s.Close()
			return nil, err
		}
		var peakLag int64
		for i, o := range gen.Stream() {
			if err := eng.Execute(o); err != nil {
				s.Close()
				return nil, err
			}
			if i%3 == 2 {
				if err := eng.Log().Force(); err != nil {
					s.Close()
					return nil, err
				}
			}
			if i%11 == 7 {
				if err := eng.InstallOne(); err != nil {
					s.Close()
					return nil, err
				}
			}
			if _, lagRecords := s.Lag(); lagRecords > peakLag {
				peakLag = lagRecords
			}
			// One batch per step: a small batch drains a durable backlog
			// slower than the workload grows it.
			if _, err := s.Pump(); err != nil {
				s.Close()
				return nil, err
			}
		}
		if err := eng.Log().Force(); err != nil {
			s.Close()
			return nil, err
		}
		if err := s.Sync(); err != nil {
			s.Close()
			return nil, err
		}
		st := sb.Stats()
		eng.Crash()
		start := time.Now()
		_, res, err := sb.Promote()
		failover := time.Since(start)
		s.Close()
		if err != nil {
			return nil, err
		}
		t.AddRow(batch, st.Batches, st.Applied, peakLag, res.Redone,
			failover.Microseconds())
	}
	t.Notes = append(t.Notes,
		"peak lag shrinks as batches grow: at one record per batch the backlog drains slower than the workload appends",
		"failover redo is the uninstalled tail, identical at every batch size: continuous redo already applied every shipped record, so promotion cost is set by the install policy, not by shipping; timing is machine-dependent",
	)
	return t, nil
}
