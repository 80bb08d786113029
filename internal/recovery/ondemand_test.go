package recovery_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/obs"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
)

// TestOnDemandConcurrentDemandTraced is the regression test for the shared
// demand-lane race: Require* is documented safe for concurrent use, and with
// a Tracer set every goroutine that replays a chain opens its span on a lane
// it alone owns.  Four goroutines demand distinct single-key chains while a
// background worker and then Wait drain the rest; under -race a shared lane
// trips the detector, and in any mode no lane may carry overlapping spans.
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

	tracer := obs.NewTracer()
	od, err := recovery.StartOnDemand(eng.Log(), eng.Store(), recovery.Options{
		Test: opts.RedoTest,
		Cache: cache.Config{
			Policy: opts.Policy, Strategy: opts.Strategy,
			LogInstalls: opts.LogInstalls, Registry: eng.Registry(),
		},
		RedoWorkers: 1,
		Tracer:      tracer,
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

	byLane := map[string][]obs.Event{}
	chains := 0
	for _, ev := range tracer.Events() {
		if ev.Name == "chain" {
			chains++
			byLane[ev.Lane] = append(byLane[ev.Lane], ev)
		}
	}
	if chains != keys {
		t.Errorf("chain spans = %d, want %d", chains, keys)
	}
	for lane, evs := range byLane {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
		for i := 1; i < len(evs); i++ {
			if evs[i].Start < evs[i-1].End() {
				t.Fatalf("lane %s carries overlapping chain spans: two goroutines shared it", lane)
			}
		}
	}
}
