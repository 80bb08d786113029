// Package sim provides the crash-testing machinery used to validate the
// recovery system end to end: a pure re-execution oracle, randomized
// workload drivers with crash points at arbitrary steps, and the comparison
// logic that checks a recovered database against the oracle.
//
// The correctness property checked is the paper's: after a crash, the
// durable log's operations (a prefix in conflict order, because the WAL
// protocol forces the log before any installation) replayed from the initial
// state must agree with the recovered database on every live object.
package sim

import (
	"fmt"
	"math/rand"

	"logicallog/internal/core"
	"logicallog/internal/op"
)

// Oracle replays operations against a pure in-memory state.
type Oracle struct {
	reg   *op.Registry
	state map[op.ObjectID][]byte
	live  map[op.ObjectID]bool
}

// NewOracle returns an empty oracle over the given registry.
func NewOracle(reg *op.Registry) *Oracle {
	return &Oracle{
		reg:   reg,
		state: make(map[op.ObjectID][]byte),
		live:  make(map[op.ObjectID]bool),
	}
}

// Apply replays one operation.
func (o *Oracle) Apply(x *op.Operation) error {
	reads := make([][]byte, len(x.ReadSet))
	for i, r := range x.ReadSet {
		if !o.live[r] {
			return fmt.Errorf("sim: oracle: %s reads dead object %q", x, r)
		}
		reads[i] = o.state[r]
	}
	writes, err := o.reg.Apply(x, reads)
	if err != nil {
		return err
	}
	for i, w := range x.WriteSet {
		if x.Kind == op.KindDelete {
			delete(o.state, w)
			o.live[w] = false
			continue
		}
		o.state[w] = writes[i]
		o.live[w] = true
	}
	return nil
}

// Value returns the oracle's value for x and whether x is live.
func (o *Oracle) Value(x op.ObjectID) ([]byte, bool) {
	if !o.live[x] {
		return nil, false
	}
	return o.state[x], true
}

// Live returns the live object ids (unordered).
func (o *Oracle) Live() []op.ObjectID {
	var out []op.ObjectID
	for x, l := range o.live {
		if l {
			out = append(out, x)
		}
	}
	return op.Canonicalize(out)
}

// Scenario parameterizes a randomized crash test.
type Scenario struct {
	// Seed drives all randomness; equal seeds replay identical scenarios.
	Seed int64
	// Objects is the number of objects in play.
	Objects int
	// Steps is the number of workload steps before the crash.
	Steps int
	// InstallEvery gives the mean steps between cache installs (0 = never).
	InstallEvery int
	// CheckpointEvery gives the mean steps between checkpoints (0 = never).
	CheckpointEvery int
	// ForceEvery gives the mean steps between explicit log forces
	// (0 = only the forces installation triggers).
	ForceEvery int
	// DeletePercent is the percentage of steps that delete an object.
	DeletePercent int
	// ValueSize is the object value size in bytes.
	ValueSize int
	// StepHook, when set, runs at the start of every step (before the
	// step's install/checkpoint/force/op) — cmd/llship pumps its log
	// shipper here.  StepHook does not consume scenario randomness, so a
	// seed replays the same workload with or without it.
	StepHook func(step int) error
}

// DefaultScenario returns a scenario exercising all machinery.
func DefaultScenario(seed int64) Scenario {
	return Scenario{
		Seed:            seed,
		Objects:         6,
		Steps:           80,
		InstallEvery:    7,
		CheckpointEvery: 23,
		ForceEvery:      11,
		DeletePercent:   5,
		ValueSize:       16,
	}
}

// CrashTest drives a random workload against an engine built from opts,
// crashes it, recovers, and verifies the recovered state against the oracle
// replay of the durable history.  It returns a descriptive error on any
// divergence.
func CrashTest(opts core.Options, sc Scenario) error {
	if opts.RedoWorkers == 0 {
		// Exercise one and several replaying goroutines alike.  A separate rng keeps the
		// workload stream (and thus every pinned-seed regression scenario)
		// byte-identical to what it was before worker randomization existed.
		workerRNG := rand.New(rand.NewSource(sc.Seed ^ 0x5ed0c0de))
		opts.RedoWorkers = []int{1, 2, 4, 8}[workerRNG.Intn(4)]
	}
	eng, err := core.New(opts)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	if err := driveWorkload(eng, rng, sc); err != nil {
		return err
	}

	stableHorizon := eng.Log().StableLSN()
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		return fmt.Errorf("sim: recover: %w", err)
	}
	if err := VerifyAgainstOracle(eng, stableHorizon); err != nil {
		return err
	}

	// Idempotence (Theorem 2): crash immediately after recovery (nothing
	// new forced or flushed beyond what recovery did) and recover again.
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		return fmt.Errorf("sim: second recover: %w", err)
	}
	if err := VerifyAgainstOracle(eng, stableHorizon); err != nil {
		return fmt.Errorf("sim: after second recovery: %w", err)
	}

	// Finally the recovered engine must be able to flush everything and
	// keep the same values.
	if err := eng.FlushAll(); err != nil {
		return fmt.Errorf("sim: post-recovery flush: %w", err)
	}
	return VerifyAgainstOracle(eng, stableHorizon)
}

// VerifyAgainstOracle replays the engine's durable history (ops with
// LSN <= horizon) on an oracle and compares every live object's value with
// the engine's current (volatile) view.
func VerifyAgainstOracle(eng *core.Engine, horizon op.SI) error {
	return VerifyHistory(eng.Registry(), eng.History(), eng, horizon)
}

// VerifyHistory replays hist (ops with LSN <= horizon) on an oracle and
// compares every live object's value with eng's current view.  Splitting the
// history source from the engine under test lets a promoted standby be
// checked against the *primary's* execution history — the replication
// correctness claim is exactly that the standby recovers the same state a
// single node would from the same log prefix.
func VerifyHistory(reg *op.Registry, hist []*op.Operation, eng *core.Engine, horizon op.SI) error {
	// A crash loses unforced tail records, and the restarted log reassigns
	// their LSNs (wal.Log.Restart rewinds to the durable horizon so the
	// durable log stays gap-free).  An LSN is only reused when its earlier
	// holder was never durable, so of the history entries sharing an LSN
	// exactly the last one is the durable operation — replay that one.
	lastIdx := make(map[op.SI]int, len(hist))
	for i, o := range hist {
		if o.LSN != op.NilSI {
			lastIdx[o.LSN] = i
		}
	}
	oracle := NewOracle(reg)
	for i, o := range hist {
		if o.LSN == op.NilSI || o.LSN > horizon || lastIdx[o.LSN] != i {
			continue
		}
		if err := oracle.Apply(o); err != nil {
			return fmt.Errorf("sim: oracle replay: %w", err)
		}
	}
	for _, x := range oracle.Live() {
		want, _ := oracle.Value(x)
		got, err := eng.Get(x)
		if err != nil {
			return fmt.Errorf("sim: recovered engine lost object %q: %w", x, err)
		}
		if !op.Equal(got, want) {
			return fmt.Errorf("sim: object %q diverged: engine %v, oracle %v", x, got, want)
		}
	}
	return nil
}

// DriveWorkload executes the scenario's random workload against eng (without
// crashing it) — the building block CrashTest and cmd/llrun share.
func DriveWorkload(eng *core.Engine, sc Scenario) error {
	return driveWorkload(eng, rand.New(rand.NewSource(sc.Seed)), sc)
}

// driveWorkload executes sc.Steps random steps.
func driveWorkload(eng *core.Engine, rng *rand.Rand, sc Scenario) error {
	objects := make([]op.ObjectID, sc.Objects)
	for i := range objects {
		objects[i] = op.ObjectID(fmt.Sprintf("obj%02d", i))
	}
	live := make(map[op.ObjectID]bool)
	liveList := func() []op.ObjectID {
		var out []op.ObjectID
		for _, x := range objects {
			if live[x] {
				out = append(out, x)
			}
		}
		return out
	}

	for step := 0; step < sc.Steps; step++ {
		if sc.StepHook != nil {
			if err := sc.StepHook(step); err != nil {
				return err
			}
		}
		if sc.InstallEvery > 0 && rng.Intn(sc.InstallEvery) == 0 {
			if err := eng.InstallOne(); err != nil {
				return fmt.Errorf("sim: install: %w", err)
			}
		}
		if sc.CheckpointEvery > 0 && rng.Intn(sc.CheckpointEvery) == 0 {
			if err := eng.Checkpoint(); err != nil {
				return fmt.Errorf("sim: checkpoint: %w", err)
			}
		}
		if sc.ForceEvery > 0 && rng.Intn(sc.ForceEvery) == 0 {
			if err := eng.Log().Force(); err != nil {
				return err
			}
		}
		o := randomStep(rng, objects, live, liveList(), sc)
		if o == nil {
			continue
		}
		if err := eng.Execute(o); err != nil {
			return fmt.Errorf("sim: execute %s: %w", o, err)
		}
		for _, x := range o.WriteSet {
			live[x] = o.Kind != op.KindDelete
		}
	}
	return nil
}

func randomStep(rng *rand.Rand, objects []op.ObjectID, live map[op.ObjectID]bool, liveNow []op.ObjectID, sc Scenario) *op.Operation {
	// Create dead objects opportunistically.
	var dead []op.ObjectID
	for _, x := range objects {
		if !live[x] {
			dead = append(dead, x)
		}
	}
	if len(liveNow) < 2 && len(dead) > 0 {
		v := make([]byte, sc.ValueSize)
		rng.Read(v)
		return op.NewCreate(dead[rng.Intn(len(dead))], v)
	}
	if sc.DeletePercent > 0 && rng.Intn(100) < sc.DeletePercent && len(liveNow) > 2 {
		return op.NewDelete(liveNow[rng.Intn(len(liveNow))])
	}
	if len(dead) > 0 && rng.Intn(10) == 0 {
		v := make([]byte, sc.ValueSize)
		rng.Read(v)
		return op.NewCreate(dead[rng.Intn(len(dead))], v)
	}
	x := liveNow[rng.Intn(len(liveNow))]
	y := liveNow[rng.Intn(len(liveNow))]
	switch rng.Intn(6) {
	case 0: // physical blind write
		v := make([]byte, sc.ValueSize)
		rng.Read(v)
		return op.NewPhysicalWrite(x, v)
	case 1: // physiological self-transform
		return op.NewPhysioWrite(x, op.FuncAppend, []byte{byte(rng.Intn(256))})
	case 2, 3: // A-form logical: y <- y xor x
		if x == y {
			return op.NewPhysioWrite(x, op.FuncAppend, []byte{1})
		}
		return op.NewLogical(op.FuncXor, op.EncodeParams([]byte(y), []byte(x)),
			[]op.ObjectID{x, y}, []op.ObjectID{y})
	default: // B-form logical: x <- copy(y)
		if x == y {
			return op.NewPhysioWrite(x, op.FuncAppend, []byte{2})
		}
		return op.NewLogical(op.FuncCopy, []byte(x), []op.ObjectID{y}, []op.ObjectID{x})
	}
}
