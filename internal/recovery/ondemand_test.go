package recovery_test

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"logicallog/internal/backup"
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
// distinct single-key chains (actor "demand") while the background replayer
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
		Flight: fl,
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

// recoveryGoroutines returns the stacks of the goroutines running recovery
// code at this moment.
func recoveryGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "logicallog/internal/recovery.") {
			out = append(out, g)
		}
	}
	return out
}

// TestRedoReplayerGoroutines pins who replays: Recover, and Redo under
// backup.MediaRecover, replay every chain on the caller's goroutine and
// start none, and StartOnDemand (through Engine.RecoverOnDemand) starts
// exactly one background replayer.  A transform registered for the test
// looks at the goroutines running recovery code while it is being redone.
func TestRedoReplayerGoroutines(t *testing.T) {
	const objects = 16
	var hook func()
	reg := op.NewRegistry()
	reg.Register("probe", func(params []byte, a *op.Args) error {
		if hook != nil {
			hook()
		}
		x, v := a.Sole()
		a.Write(x, append(append([]byte(nil), v...), params...))
		return nil
	})
	opts := core.DefaultOptions()
	opts.Registry = reg
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := backup.Take(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		x := op.ObjectID(fmt.Sprintf("p%02d", i))
		if err := eng.Execute(op.NewCreate(x, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
		if err := eng.Execute(op.NewPhysioWrite(x, "probe", []byte{1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()

	// serial checks that each redone probe runs on the test's goroutine and
	// that it is the only one in recovery code.
	calls := 0
	serial := func(path string) func() {
		calls = 0
		return func() {
			calls++
			if gs := recoveryGoroutines(); len(gs) != 1 || !strings.Contains(gs[0], "TestRedoReplayerGoroutines") {
				t.Errorf("%s: %d goroutines in recovery code, want only the caller:\n%s", path, len(gs), strings.Join(gs, "\n\n"))
			}
		}
	}
	hook = serial("Recover")
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	if calls != objects {
		t.Errorf("Recover redid %d probes, want %d", calls, objects)
	}
	hook = nil
	eng.Crash()

	// The first probe the background replayer redoes holds it until the
	// goroutines have been counted.
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hook = func() { once.Do(func() { close(entered); <-release }) }
	od, err := eng.RecoverOnDemand()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no background replayer redid a probe")
	}
	if gs := recoveryGoroutines(); len(gs) != 1 || !strings.Contains(gs[0], "(*OnDemand).drain") {
		t.Errorf("StartOnDemand: %d goroutines in recovery code, want one background replayer:\n%s", len(gs), strings.Join(gs, "\n\n"))
	}
	close(release)
	if _, err := od.Wait(); err != nil {
		t.Fatal(err)
	}
	hook = nil
	eng.Crash()

	eng.Store().Restore(nil) // the media failure
	hook = serial("MediaRecover")
	if _, err := backup.MediaRecover(eng, b); err != nil {
		t.Fatal(err)
	}
	if calls != objects {
		t.Errorf("MediaRecover redid %d probes, want %d", calls, objects)
	}
}
