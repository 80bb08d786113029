package cache

import (
	"fmt"
	"sync"
	"testing"

	"logicallog/internal/op"
	"logicallog/internal/stable"
)

// replayChain builds a redo chain over objs: each object is first created
// as a copy of the shared stored object, then grown by concatenations with
// the shared object or with the chain's next object.  The chain writes only
// objs; it reads shared, which no chain writes.  LSNs start at first and
// step by stride, so two chains interleave in LSN order.
func replayChain(objs []op.ObjectID, shared op.ObjectID, first, stride op.SI) []*op.Operation {
	var ops []*op.Operation
	for _, x := range objs {
		ops = append(ops, op.NewLogical(op.FuncCopy, []byte(x), []op.ObjectID{shared}, []op.ObjectID{x}))
	}
	for k := 0; k < 4*len(objs); k++ {
		x := objs[k%len(objs)]
		other := shared
		if k%2 == 1 {
			other = objs[(k+1)%len(objs)]
		}
		ops = append(ops, op.NewLogical(op.FuncConcat, op.EncodeParams([]byte(x), []byte(other)),
			[]op.ObjectID{x, other}, []op.ObjectID{x}))
	}
	for i, o := range ops {
		o.LSN = first + op.SI(i)*stride
	}
	return ops
}

// TestConcurrentReplayOnOneTable replays two chains over disjoint objects
// concurrently, both read-faulting the same stored object, and requires
// the state a serial replay in LSN order produces.  This is the contract
// the dirty object table's lock serves: it guards the map's structure,
// each entry is mutated only by the chain owning its object, and two
// chains faulting one object share a single entry.
func TestConcurrentReplayOnOneTable(t *testing.T) {
	const shared = op.ObjectID("S")
	var chains [2][]op.ObjectID
	for c := range chains {
		for i := 0; i < 4; i++ {
			chains[c] = append(chains[c], op.ObjectID(fmt.Sprintf("%c%d", 'a'+c, i)))
		}
	}
	newManager := func() *Manager {
		m, _, store := newTestManager(t, rwIdentityCfg())
		if err := store.WriteBatch([]stable.Entry{{ID: shared, Val: []byte("s"), VSI: 0}}, stable.ModeSingle); err != nil {
			t.Fatal(err)
		}
		return m
	}
	ops := [2][]*op.Operation{
		replayChain(chains[0], shared, 1, 2),
		replayChain(chains[1], shared, 2, 2),
	}

	serial := newManager()
	var all []*op.Operation
	for i := range ops[0] {
		all = append(all, ops[0][i], ops[1][i])
	}
	for _, o := range all {
		if voided, err := serial.TryApplyLogged(o); err != nil || voided {
			t.Fatalf("serial TryApplyLogged(%s) = voided %v, %v", o, voided, err)
		}
		if err := serial.AddToGraph(o); err != nil {
			t.Fatal(err)
		}
	}

	for round := 0; round < 20; round++ {
		m := newManager()
		start := make(chan struct{})
		errs := make([]error, len(ops))
		var wg sync.WaitGroup
		for c := range ops {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				for _, o := range ops[c] {
					voided, err := m.TryApplyLogged(o)
					if err == nil && voided {
						err = fmt.Errorf("redo of %s voided", o)
					}
					if err == nil {
						err = m.AddToGraph(o)
					}
					if err != nil {
						errs[c] = err
						return
					}
				}
			}(c)
		}
		close(start)
		wg.Wait()
		for c, err := range errs {
			if err != nil {
				t.Fatalf("round %d chain %d: %v", round, c, err)
			}
		}
		for _, objs := range chains {
			for _, x := range objs {
				got, err := m.Get(x)
				want, _ := serial.Get(x)
				if err != nil || string(got) != string(want) {
					t.Fatalf("round %d: %s = %q, %v; serial replay has %q", round, x, got, err, want)
				}
			}
		}
		if got, want := m.DirtyCount(), len(chains[0])+len(chains[1]); got != want {
			t.Fatalf("round %d: DirtyCount = %d, want %d written objects", round, got, want)
		}
		if v, ok := m.VSI(shared); !ok || v != 0 {
			t.Fatalf("round %d: shared object cached = %v with vSI %d, want its stored vSI 0", round, ok, v)
		}
	}
}
