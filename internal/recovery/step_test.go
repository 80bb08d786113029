package recovery_test

import (
	"fmt"
	"testing"

	"logicallog/internal/cache"
	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
	"logicallog/internal/writegraph"
)

// stepCase is one recovering state plus the operation replayed against it,
// and what each REDO test must make of it.
type stepCase struct {
	name   string
	stable map[op.ObjectID]stable.Versioned
	dot    map[op.ObjectID]op.SI
	op     *op.Operation
	want   map[recovery.RedoTest]recovery.Outcome
	// evidence is the flight event's object/SI under TestRSI and TestVSI
	// (redo-all decides without evidence).
	evObj op.ObjectID
	evRef op.SI
	// rsiOnly marks evidence only the dirty table supplies.
	rsiOnly bool
}

const stepLSN = 7

func stepCases() []stepCase {
	write := func(x op.ObjectID) *op.Operation {
		o := op.NewPhysicalWrite(x, []byte("v"))
		o.LSN = stepLSN
		return o
	}
	copyFromGone := op.NewLogical(op.FuncCopy, []byte("Y"), []op.ObjectID{"gone"}, []op.ObjectID{"Y"})
	copyFromGone.LSN = stepLSN
	return []stepCase{
		{
			name:   "installed",
			stable: map[op.ObjectID]stable.Versioned{"X": {Val: []byte("new"), VSI: 10}},
			op:     write("X"),
			want: map[recovery.RedoTest]recovery.Outcome{
				recovery.TestRedoAll: recovery.Redone,
				recovery.TestVSI:     recovery.SkippedInstalled,
				recovery.TestRSI:     recovery.SkippedInstalled,
			},
			evObj: "X", evRef: 10,
		},
		{
			name: "clean",
			op:   write("X"),
			want: map[recovery.RedoTest]recovery.Outcome{
				recovery.TestRedoAll: recovery.Redone,
				recovery.TestVSI:     recovery.Redone,
				recovery.TestRSI:     recovery.SkippedUnexposed,
			},
		},
		{
			name: "exposed",
			dot:  map[op.ObjectID]op.SI{"X": 5},
			op:   write("X"),
			want: map[recovery.RedoTest]recovery.Outcome{
				recovery.TestRedoAll: recovery.Redone,
				recovery.TestVSI:     recovery.Redone,
				recovery.TestRSI:     recovery.Redone,
			},
			evObj: "X", evRef: 5, rsiOnly: true,
		},
		{
			name: "inapplicable",
			dot:  map[op.ObjectID]op.SI{"Y": 5},
			op:   copyFromGone,
			want: map[recovery.RedoTest]recovery.Outcome{
				recovery.TestRedoAll: recovery.Voided,
				recovery.TestVSI:     recovery.Voided,
				recovery.TestRSI:     recovery.Voided,
			},
			evObj: "Y", evRef: 5, rsiOnly: true,
		},
	}
}

// TestStepOutcomeSinksAgree runs every REDO test over every recovering state
// and requires the one outcome Apply returns to be what every sink saw: the
// Result counter, the recovery.decide.* counter, the flight event (with its
// witness or dirty-table evidence and the replayer's actor).  The write
// graph is not a sink: it stays empty.
func TestStepOutcomeSinksAgree(t *testing.T) {
	decide := map[recovery.Outcome]string{
		recovery.Redone:           "recovery.decide.redo",
		recovery.Voided:           "recovery.decide.voided",
		recovery.SkippedInstalled: "recovery.decide.skip_installed",
		recovery.SkippedUnexposed: "recovery.decide.skip_unexposed",
	}
	seen := map[recovery.Outcome]bool{}
	for _, actor := range []string{"recovery", "standby"} {
		for _, test := range []recovery.RedoTest{recovery.TestRedoAll, recovery.TestVSI, recovery.TestRSI} {
			for _, tc := range stepCases() {
				t.Run(fmt.Sprintf("%s/%s/%s", actor, test, tc.name), func(t *testing.T) {
					log, err := wal.New(wal.NewMemDevice())
					if err != nil {
						t.Fatal(err)
					}
					store := stable.NewStore()
					store.Restore(tc.stable)
					mgr, err := cache.NewManager(cache.Config{
						Policy: writegraph.PolicyRW, Strategy: cache.StrategyIdentityWrite,
						LogInstalls: true, Registry: op.NewRegistry(),
					}, log, store)
					if err != nil {
						t.Fatal(err)
					}
					reg := obs.NewRegistry()
					fl := flight.NewRecorder(16)
					step := recovery.NewStep(recovery.Options{
						Test: test, Cache: cache.Config{Obs: reg}, Flight: fl,
					}, actor, mgr, tc.dot)

					out, err := step.Apply(tc.op)
					if err != nil {
						t.Fatal(err)
					}
					want := tc.want[test]
					if out != want {
						t.Fatalf("outcome = %s, want %s", out, want)
					}
					seen[out] = true

					var res recovery.Result
					res.Count(out)
					wantRes := map[recovery.Outcome]recovery.Result{
						recovery.Redone:           {Redone: 1},
						recovery.Voided:           {Voided: 1},
						recovery.SkippedInstalled: {SkippedInstalled: 1},
						recovery.SkippedUnexposed: {SkippedUnexposed: 1},
					}[out]
					if res != wantRes {
						t.Errorf("Result after Count(%s) = %+v", out, res)
					}

					counters := reg.Snapshot().Counters
					for o, name := range decide {
						wantN := int64(0)
						if o == out {
							wantN = 1
						}
						if counters[name] != wantN {
							t.Errorf("%s = %d, want %d", name, counters[name], wantN)
						}
					}

					evs := fl.Events()
					if len(evs) != 1 {
						t.Fatalf("flight events = %v, want exactly one", evs)
					}
					ev := evs[0]
					wantObj, wantRef := tc.evObj, tc.evRef
					if test == recovery.TestRedoAll || (tc.rsiOnly && test != recovery.TestRSI) {
						wantObj, wantRef = "", op.NilSI
					}
					if ev.Kind != flight.KindRedoDecision || ev.Actor != actor || ev.LSN != stepLSN ||
						ev.Dec.String() != out.String() || ev.Object != wantObj || ev.Ref != wantRef {
						t.Errorf("flight event = %+v, want %s by %s at lsn %d with evidence (%q, %d)",
							ev, out, actor, stepLSN, wantObj, wantRef)
					}

					_, getErr := mgr.Get(tc.op.WriteSet[0])
					if applied := getErr == nil && mgr.CurrentVSI(tc.op.WriteSet[0]) == stepLSN; applied != (out == recovery.Redone) {
						t.Errorf("outcome %s but cache applied=%v", out, applied)
					}
					// The step leaves the write graph to its caller, even for
					// an operation it redoes.
					if n := mgr.WriteGraph().OpCount(); n != 0 {
						t.Errorf("outcome %s but the step put %d operations into the write graph", out, n)
					}
				})
			}
		}
	}
	for out := range decide {
		if !seen[out] {
			t.Errorf("no case produced outcome %s", out)
		}
	}
}
