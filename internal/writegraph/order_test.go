package writegraph

import (
	"fmt"
	"math"
	"testing"

	"logicallog/internal/op"
)

// listIDs returns the node ids along the order list.
func listIDs(wg *Graph) []int64 {
	var out []int64
	for n := wg.first; n != nil; n = n.next {
		out = append(out, int64(n.id))
	}
	return out
}

// TestOrderGapExhaustionRelabels splices a node into the same gap over and
// over: under W, node L holds X; each round a fresh node P reads R and then a
// blind write of {X, R} merges into L, adding P -> L against the order, so P
// moves just before L and halves the gap between L and its predecessor.  The
// first round is a splice at the front of the list; after 32 rounds the gap
// is gone and the list is relabelled.
func TestOrderGapExhaustionRelabels(t *testing.T) {
	wg := New(PolicyW)
	lsn := op.SI(0)
	next := func(reads, writes []op.ObjectID) *op.Operation {
		lsn++
		return mkop(lsn, reads, writes)
	}
	addAll(t, wg, next(nil, []op.ObjectID{"X"}))
	l, _ := wg.NodeOf("X")
	for i := 0; i < 40; i++ {
		r := op.ObjectID(fmt.Sprintf("R%02d", i))
		addAll(t, wg, next([]op.ObjectID{r}, []op.ObjectID{op.ObjectID(fmt.Sprintf("Y%02d", i))}))
		p := wg.last.id
		addAll(t, wg, next(nil, []op.ObjectID{"X", r}))
		if !wg.HasEdge(p, l) || wg.last.id != l || wg.last.prev.id != p {
			t.Fatalf("round %d: want %d moved just before %d, list %v", i, p, l, listIDs(wg))
		}
		if i == 0 && wg.first.id != p {
			t.Fatalf("round 0: want %d spliced at the front, list %v", p, listIDs(wg))
		}
	}
	if wg.Len() != 41 {
		t.Fatalf("Len = %d, want 41", wg.Len())
	}
	if wg.relabels != 1 {
		t.Errorf("relabels = %d, want 1 (a gap of 2^32 halves 32 times)", wg.relabels)
	}

	// Drain to empty, then refill.
	for wg.Len() > 0 {
		if _, err := wg.Remove(wg.Minimal()[0]); err != nil {
			t.Fatal(err)
		}
		if err := wg.Validate(); err != nil {
			t.Fatalf("after Remove: %v", err)
		}
	}
	if wg.first != nil || wg.last != nil {
		t.Fatalf("drained graph still lists %v", listIDs(wg))
	}
	addAll(t, wg, next(nil, []op.ObjectID{"X"}), next([]op.ObjectID{"X"}, []op.ObjectID{"Y"}))
	if wg.first.rank != rankGap || wg.last.rank != 2*rankGap {
		t.Errorf("refilled ranks %d, %d, want %d, %d", wg.first.rank, wg.last.rank, rankGap, 2*rankGap)
	}
}

// TestOrderSpliceMovesEveryNode: the Section 4 cycle moves the whole list —
// both nodes are in B and the lower one was first — and collapses it into
// one node at the front.
func TestOrderSpliceMovesEveryNode(t *testing.T) {
	wg := New(PolicyRW)
	addAll(t, wg,
		mkop(1, []op.ObjectID{"X", "Y"}, []op.ObjectID{"Y"}),
		mkop(2, []op.ObjectID{"Y"}, []op.ObjectID{"X"}),
	)
	first := wg.first.id
	addAll(t, wg, mkop(3, []op.ObjectID{"Y"}, []op.ObjectID{"Y"}))
	if wg.Len() != 1 || wg.first != wg.last || wg.first.id != first {
		t.Fatalf("want node %d alone in the list, list %v", first, listIDs(wg))
	}
}

// TestOrderNearMaxRank puts the last rank next to math.MaxInt64: a splice
// that moves the tail of the list ranks it past its new predecessor without
// overflowing, and appending a node relabels the list.
func TestOrderNearMaxRank(t *testing.T) {
	wg := New(PolicyRW)
	addAll(t, wg,
		mkop(1, nil, []op.ObjectID{"A"}),
		mkop(2, []op.ObjectID{"X", "Y"}, []op.ObjectID{"Y"}),
		mkop(3, []op.ObjectID{"Y"}, []op.ObjectID{"X"}),
	)
	wg.last.rank = math.MaxInt64 - 1
	if err := wg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Closes a cycle over the last two nodes: B is the tail of the list.
	addAll(t, wg, mkop(4, []op.ObjectID{"Y"}, []op.ObjectID{"Y"}))
	if wg.Len() != 2 || wg.relabels != 0 {
		t.Fatalf("Len = %d, relabels = %d, want 2 and 0", wg.Len(), wg.relabels)
	}
	wg.last.rank = math.MaxInt64 - 1
	addAll(t, wg, mkop(5, nil, []op.ObjectID{"Z"}))
	if wg.relabels != 1 {
		t.Errorf("relabels = %d, want 1", wg.relabels)
	}
	if z, _ := wg.NodeOf("Z"); wg.last.id != z {
		t.Errorf("appended node %d is not last, list %v", z, listIDs(wg))
	}
}
