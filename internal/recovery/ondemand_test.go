package recovery_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
)

// TestOnDemandConcurrentDemandTraced: Require* is documented safe for
// concurrent use, and with a flight recorder set every replayed chain
// records one chain phase on its replayer's actor.  Four goroutines demand
// distinct single-key chains (actor "demand") while a background worker
// ("redo-worker-00") and then Wait ("redo-wait") drain the rest.  Each of
// those two is one goroutine replaying one chain at a time, so neither
// actor may carry overlapping chain phases.
func TestOnDemandConcurrentDemandTraced(t *testing.T) {
	const keys, demanders = 800, 4
	opts := core.DefaultOptions()
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) op.ObjectID { return op.ObjectID(fmt.Sprintf("k%04d", i)) }
	for i := 0; i < keys; i++ {
		if err := eng.Execute(op.NewCreate(key(i), []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()

	fl := flight.NewRecorder(1 << 13)
	reg := obs.NewRegistry()
	od, err := recovery.StartOnDemand(eng.Log(), eng.Store(), recovery.Options{
		Test: opts.RedoTest,
		Cache: cache.Config{
			Policy: opts.Policy, Strategy: opts.Strategy,
			LogInstalls: opts.LogInstalls, Registry: eng.Registry(), Obs: reg,
		},
		RedoWorkers: 1,
		Flight:      fl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if od.Chains() != keys {
		t.Fatalf("chains = %d, want one per key (%d)", od.Chains(), keys)
	}
	var wg sync.WaitGroup
	for g := 0; g < demanders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Walk from the far end so demand meets the background cursor
			// late and most chains are still pending when demanded.
			for i := keys - 1 - g; i >= 0; i -= demanders {
				if err := od.RequireRead(key(i)); err != nil {
					t.Errorf("RequireRead(%s): %v", key(i), err)
					return
				}
			}
		}(g)
	}
	res, err := od.Wait() // overlaps the demanders, as llserve's drain does
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone != keys {
		t.Errorf("redone = %d, want %d", res.Redone, keys)
	}

	if _, drops, _ := fl.Counters(); drops != 0 {
		t.Fatalf("flight ring dropped %d events", drops)
	}
	byActor := map[string][]flight.Event{}
	chains := 0
	for _, ev := range fl.Events() {
		if ev.Kind == flight.KindPhase && ev.Dec == flight.DecChain {
			chains++
			byActor[ev.Actor] = append(byActor[ev.Actor], ev)
		}
	}
	if chains != keys {
		t.Errorf("chain phases = %d, want %d", chains, keys)
	}
	// The scheduler's counters split the same chains by who replayed them,
	// and each demand-replayed chain was asked for by a Require call.
	c := reg.Snapshot().Counters
	demand := int64(len(byActor["demand"]))
	if c["recovery.ondemand.demand_chains"] != demand || c["recovery.ondemand.background_chains"] != keys-demand {
		t.Errorf("demand_chains = %d, background_chains = %d; chain phases say %d and %d",
			c["recovery.ondemand.demand_chains"], c["recovery.ondemand.background_chains"], demand, keys-demand)
	}
	if c["recovery.ondemand.requires"] < demand {
		t.Errorf("requires = %d, below the %d demand-replayed chains", c["recovery.ondemand.requires"], demand)
	}
	if _, ok := c["recovery.ondemand.demand_waits"]; !ok {
		t.Error("recovery.ondemand.demand_waits not reported")
	}
	for actor, evs := range byActor {
		switch actor {
		case "demand": // four goroutines share it
			continue
		case "redo-worker-00", "redo-wait":
		default:
			t.Errorf("chain phase on actor %q", actor)
		}
		start := func(ev flight.Event) time.Duration { return ev.At - time.Duration(ev.N) }
		sort.Slice(evs, func(i, j int) bool { return start(evs[i]) < start(evs[j]) })
		for i := 1; i < len(evs); i++ {
			if start(evs[i]) < evs[i-1].At {
				t.Fatalf("actor %s carries overlapping chain phases", actor)
			}
		}
	}
}
