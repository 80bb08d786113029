package recovery_test

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// inRecovery counts the stacks among gs that contain sub.
func inRecovery(gs []string, sub string) int {
	n := 0
	for _, g := range gs {
		if strings.Contains(g, sub) {
			n++
		}
	}
	return n
}

// probeRegistry returns a registry of the builtin transforms plus "probe",
// which appends its params to its one object and, while *hook is set, calls
// it first: a test looks from inside a redone operation at who redoes it.
func probeRegistry(hook *func()) *op.Registry {
	reg := op.NewRegistry()
	reg.Register("probe", func(params []byte, a *op.Args) error {
		if *hook != nil {
			(*hook)()
		}
		x, v := a.Sole()
		a.Write(x, append(append([]byte(nil), v...), params...))
		return nil
	})
	return reg
}

// crashProbes creates objects p00, p01, ..., probes each once, forces the
// log and crashes eng: a redo suffix of one two-operation chain per object.
func crashProbes(t *testing.T, eng *core.Engine, objects int) {
	t.Helper()
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
}

// stageGoroutine marks the stack of a write-graph stage goroutine, started
// or not.
const stageGoroutine = "created by logicallog/internal/recovery.newOnDemand"

// stageFunc marks a stack inside the write-graph stage's own function.
const stageFunc = "logicallog/internal/recovery.(*OnDemand).runGraph"

// TestRedoReplayerGoroutines pins who replays.  Recover, and Redo under
// backup.MediaRecover, replay every value on the caller's goroutine and
// start exactly one other, the write-graph stage, which has left the
// recovery code by the time they return.  StartOnDemand (through
// Engine.RecoverOnDemand) runs one background replayer beside one stage.  A
// transform registered for the test looks at the goroutines running
// recovery code while it is being redone.
func TestRedoReplayerGoroutines(t *testing.T) {
	const objects = 16
	var hook func()
	opts := core.DefaultOptions()
	opts.Registry = probeRegistry(&hook)
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := backup.Take(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	crashProbes(t, eng, objects)

	// serial checks that each redone probe runs on the test's goroutine
	// and that the only other goroutine in recovery code is the stage.
	calls := 0
	serial := func(path string) func() {
		calls = 0
		return func() {
			calls++
			gs := recoveryGoroutines()
			caller := 0
			for _, g := range gs {
				if strings.Contains(g, "[running]") && strings.Contains(g, "TestRedoReplayerGoroutines") {
					caller++
				}
			}
			if len(gs) != 2 || caller != 1 || inRecovery(gs, stageGoroutine) != 1 {
				t.Errorf("%s: %d goroutines in recovery code, want the caller and one graph stage:\n%s", path, len(gs), strings.Join(gs, "\n\n"))
			}
		}
	}
	// stageGone checks, once a recovery has returned, that its stage has
	// finished: at most the stage goroutine's exit is left.
	stageGone := func(path string) {
		if gs := recoveryGoroutines(); inRecovery(gs, stageFunc) != 0 {
			t.Errorf("%s returned with its graph stage still running:\n%s", path, strings.Join(gs, "\n\n"))
		}
	}
	hook = serial("Recover")
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	stageGone("Recover")
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
	if gs := recoveryGoroutines(); len(gs) != 2 || inRecovery(gs, "(*OnDemand).drain") != 1 || inRecovery(gs, stageGoroutine) != 1 {
		t.Errorf("StartOnDemand: %d goroutines in recovery code, want one background replayer and one graph stage:\n%s", len(gs), strings.Join(gs, "\n\n"))
	}
	close(release)
	if _, err := od.Wait(); err != nil {
		t.Fatal(err)
	}
	stageGone("Wait")
	hook = nil
	eng.Crash()

	eng.Store().Restore(nil) // the media failure
	hook = serial("MediaRecover")
	if _, err := backup.MediaRecover(eng, b); err != nil {
		t.Fatal(err)
	}
	stageGone("MediaRecover")
	if calls != objects {
		t.Errorf("MediaRecover redid %d probes, want %d", calls, objects)
	}
}

// TestRequireOpWaitsForGraphStage: a caller of RequireOp adds its own write
// to the write graph next, so RequireOp returns only once every operation of
// the chains it needs is in the graph — and a partial batch the stage has
// not been handed yet must not hold it up.  The background replayer is held
// inside its first chain, so the demanded chain's operations sit in an open
// batch far below graphBatch when RequireOp replays it.
func TestRequireOpWaitsForGraphStage(t *testing.T) {
	const objects = 16
	var hook func()
	opts := core.DefaultOptions()
	opts.Registry = probeRegistry(&hook)
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	crashProbes(t, eng, objects)

	// Only the first probe blocks; the demanded chain's must not (sync.Once
	// would hold it until the first returned).
	entered, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	hook = func() {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
	od, err := recovery.StartOnDemand(eng.Log(), eng.Store(), recovery.Options{
		Test:  opts.RedoTest,
		Cache: opts.CacheConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		if _, err := od.Wait(); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no background replayer redid a probe")
	}

	last := op.ObjectID(fmt.Sprintf("p%02d", objects-1))
	done := make(chan error, 1)
	go func() { done <- od.RequireOp(op.NewPhysicalWrite(last, []byte("new"))) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RequireOp did not return: a partial batch held it up")
	}
	// The stage is idle (the replayer is held and nothing else is put), and
	// RequireOp's return follows its last AddOp, so the graph may be read.
	wg := od.Manager().WriteGraph()
	id, ok := wg.NodeOf(last)
	if !ok {
		t.Fatalf("RequireOp(write %s) returned before its chain reached the write graph", last)
	}
	if nv := wg.Node(id); len(nv.Ops) != 2 {
		t.Fatalf("%s's node holds %d operations, want its chain's 2", last, len(nv.Ops))
	}
}
