package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	. "logicallog/internal/core"
	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
)

// obsEng builds an engine with a metrics registry attached.
func obsEng(t *testing.T) (*Engine, *obs.Registry) {
	t.Helper()
	opts := DefaultOptions()
	opts.Obs = obs.NewRegistry()
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, opts.Obs
}

func TestMetricsUnifiesStatsAndRegistry(t *testing.T) {
	eng, _ := obsEng(t)
	if err := eng.Execute(op.NewCreate("x", []byte("hello"))); err != nil {
		t.Fatal(err)
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if m.Counters["cache.ops_executed"] != 1 {
		t.Errorf("cache.ops_executed = %d", m.Counters["cache.ops_executed"])
	}
	if m.Counters["wal.bytes_appended"] == 0 || m.Counters["stable.object_writes"] == 0 {
		t.Errorf("legacy counters missing from metrics view: %+v", m.Counters)
	}
	// The registry's hot-path histograms are in the same view.
	if m.Histograms["wal.append.ns"].Count == 0 {
		t.Errorf("wal.append.ns histogram empty; histograms = %v", m.Histograms)
	}
	if m.Histograms["cache.install.flush_set_size"].Count == 0 {
		t.Errorf("flush-set-size histogram empty; histograms = %v", m.Histograms)
	}
}

// TestWriteGraphGaugesTrackEveryAddOp: writegraph.nodes and writegraph.ops
// follow the live write graph after each executed operation, not only after
// installs.
func TestWriteGraphGaugesTrackEveryAddOp(t *testing.T) {
	eng, _ := obsEng(t)
	for i, id := range []op.ObjectID{"a", "b", "a", "c"} {
		if err := eng.Execute(op.NewCreate(id, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
		wg := eng.Cache().WriteGraph()
		m := eng.Metrics()
		if got, want := m.Gauges["writegraph.nodes"], int64(wg.Len()); got != want {
			t.Errorf("after op %d: writegraph.nodes = %d, want %d", i, got, want)
		}
		if got, want := m.Gauges["writegraph.ops"], int64(wg.OpCount()); got != want || want != int64(i+1) {
			t.Errorf("after op %d: writegraph.ops = %d, graph holds %d, want %d", i, got, want, i+1)
		}
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.Gauges["writegraph.nodes"] != 0 || m.Gauges["writegraph.ops"] != 0 {
		t.Errorf("after FlushAll: nodes = %d, ops = %d, want 0, 0", m.Gauges["writegraph.nodes"], m.Gauges["writegraph.ops"])
	}
}

func TestResetStatsResetsEverySource(t *testing.T) {
	eng, reg := obsEng(t)
	if err := eng.Execute(op.NewCreate("x", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	if before.Log.BytesAppended == 0 || before.Store.ObjectWrites == 0 || before.Cache.OpsExecuted == 0 {
		t.Fatalf("expected non-zero counters before reset: %+v", before)
	}
	if reg.Histogram("wal.append.ns").Snapshot().Count == 0 {
		t.Fatal("expected obs observations before reset")
	}

	eng.ResetStats()

	after := eng.Stats()
	if after.Log.BytesAppended != 0 || after.Log.Forces != 0 {
		t.Errorf("log stats survived reset: %+v", after.Log)
	}
	if after.Store.ObjectWrites != 0 || after.Store.ObjectReads != 0 {
		t.Errorf("store stats survived reset: %+v", after.Store)
	}
	if after.Cache.OpsExecuted != 0 || after.Cache.Installs != 0 || after.Cache.ObjectsFlushed != 0 {
		t.Errorf("cache stats survived reset: %+v", after.Cache)
	}
	if n := reg.Histogram("wal.append.ns").Snapshot().Count; n != 0 {
		t.Errorf("obs histogram survived reset: count=%d", n)
	}
}

// TestMetricsCoherentUnderConcurrentExecute hammers the engine from
// executor, snapshot, and reset goroutines at once: under -race this shakes
// out torn cross-source reads, and the final quiescent snapshot must balance
// exactly.
func TestMetricsCoherentUnderConcurrentExecute(t *testing.T) {
	eng, _ := obsEng(t)
	const writers, opsPer = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				id := op.ObjectID(fmt.Sprintf("o%d-%d", w, i))
				if err := eng.Execute(op.NewCreate(id, []byte("v"))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Each Metrics() view is one coherent cut: ops land on the WAL
			// and the cache inside the same engine critical section, so the
			// two sources can never disagree within a snapshot.
			m := eng.Metrics()
			if ops, recs := m.Counters["cache.ops_executed"], m.Counters["wal.records.op"]; ops != recs {
				t.Errorf("torn snapshot: cache.ops_executed=%d wal.records.op=%d", ops, recs)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	snaps.Wait()
	m := eng.Metrics()
	if m.Counters["cache.ops_executed"] != writers*opsPer {
		t.Errorf("cache.ops_executed = %d, want %d", m.Counters["cache.ops_executed"], writers*opsPer)
	}
	if got := m.Counters["wal.records.op"]; got != writers*opsPer {
		t.Errorf("wal.records.op = %d, want %d", got, writers*opsPer)
	}
}

// TestRecoveryTraceSpans drives a workload, crashes, recovers, and checks
// the flight recorder captured the pipeline's phases: restart, analysis,
// redo scan and partition on actor "recovery", and one chain phase per
// dependency chain on actor "redo-worker-00", Recover's own goroutine.  That
// one goroutine replays the chains one after another, so their phases never
// overlap.
func TestRecoveryTraceSpans(t *testing.T) {
	fl := flight.NewRecorder(0)
	opts := DefaultOptions()
	opts.Obs = obs.NewRegistry()
	opts.Flight = fl
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		id := op.ObjectID(fmt.Sprintf("x%d", i%8))
		if err := eng.Execute(op.NewCreate(id, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}

	phases := map[string]int{}
	var prevEnd time.Duration
	for _, ev := range fl.Events() {
		switch {
		case ev.Kind != flight.KindPhase:
		case ev.Dec == flight.DecChain:
			if ev.Actor != "redo-worker-00" {
				t.Errorf("chain phase on actor %q", ev.Actor)
			}
			if start := ev.At - time.Duration(ev.N); start < prevEnd {
				t.Errorf("chain phase [%d, %d] starts before the previous one ended", ev.LSN, ev.Ref)
			}
			prevEnd = ev.At
			phases["chain"]++
		case ev.Actor == "recovery":
			phases[ev.Dec.String()]++
		default:
			t.Errorf("phase %s on actor %q", ev.Dec, ev.Actor)
		}
	}
	for _, want := range []string{"restart", "analysis", "redo-scan", "redo-partition"} {
		if phases[want] != 1 {
			t.Errorf("%q phases = %d, want 1; got %v", want, phases[want], phases)
		}
	}
	// The partitioner's metrics landed in the registry, and each chain
	// recorded exactly one phase.
	m := eng.Metrics()
	if chains := m.Gauges["recovery.redo.chains"]; chains == 0 || int64(phases["chain"]) != chains {
		t.Errorf("%d chain phases for %d chains", phases["chain"], chains)
	}
	if m.Histograms["recovery.redo.chain_ops"].Count == 0 {
		t.Error("recovery.redo.chain_ops histogram empty")
	}
	// Metrics reports the recorder's whole counter family.
	events, drops, spilled := fl.Counters()
	for name, want := range map[string]int64{
		"flight.events": events, "flight.ring_drops": drops, "flight.spill_bytes": spilled,
	} {
		if got, ok := m.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (reported %v), want %d", name, got, ok, want)
		}
	}
}
