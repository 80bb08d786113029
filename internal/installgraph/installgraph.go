// Package installgraph implements the installation graph of Section 2 of the
// paper and the associated theory: prefix sets, exposed objects, and
// explainable states.
//
// The installation graph for a history H is a directed graph whose nodes are
// operations and whose edges constrain the order in which operations may be
// installed into the stable database.  It keeps all read-write conflict
// edges, discards write-read edges, and keeps (a conservative superset of)
// the write-write edges:
//
//   - read-write: readset(O) ∩ writeset(P) ≠ ∅ for O < P.  If P's updates
//     reach the stable database but O's do not, O can no longer be replayed,
//     because its inputs have changed.
//   - write-write: P ∈ must(O) \ can(O) for O < P.  We pursue the paper's
//     second strategy — recovery repeats history and never resets state — so
//     write-write order cannot be violated during recovery; we nevertheless
//     retain writeset-overlap edges, a sound over-approximation that the
//     write-graph constructions rely on.
//
// Everything here treats "conflict order" as the LSN order of the logged
// history, which is a legal conflict order for a single append-only log.
package installgraph

import (
	"fmt"
	"sort"

	"logicallog/internal/graph"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
)

// EdgeKind classifies an installation edge.
type EdgeKind uint8

const (
	// EdgeReadWrite is an edge O -> P where P writes an object O read.
	EdgeReadWrite EdgeKind = 1 << iota
	// EdgeWriteWrite is an edge O -> P where P writes an object O wrote.
	EdgeWriteWrite
)

func (k EdgeKind) String() string {
	switch {
	case k&EdgeReadWrite != 0 && k&EdgeWriteWrite != 0:
		return "rw|ww"
	case k&EdgeReadWrite != 0:
		return "rw"
	case k&EdgeWriteWrite != 0:
		return "ww"
	}
	return "none"
}

// Graph is an installation graph over a history of operations.  Node ids are
// the operations' LSNs.
type Graph struct {
	ops   map[op.SI]*op.Operation
	order []op.SI // history in conflict (LSN) order
	g     *graph.Digraph
	kinds map[[2]op.SI]EdgeKind

	// fl, when set via SetFlight, records every ValueAfter resolution —
	// which writer's value the oracle projected per object (nil-safe).
	fl *flight.Recorder
}

// SetFlight attaches a decision flight recorder; nil detaches it.
func (ig *Graph) SetFlight(r *flight.Recorder) { ig.fl = r }

// Build constructs the installation graph for the given history, which must
// be in conflict (ascending LSN) order with LSNs assigned and unique.
func Build(history []*op.Operation) (*Graph, error) {
	ig := &Graph{
		ops:   make(map[op.SI]*op.Operation, len(history)),
		g:     graph.New(),
		kinds: make(map[[2]op.SI]EdgeKind),
	}
	var prev op.SI
	for _, o := range history {
		if o.LSN == op.NilSI {
			return nil, fmt.Errorf("installgraph: operation %s has no LSN", o)
		}
		if o.LSN <= prev {
			return nil, fmt.Errorf("installgraph: history not in ascending LSN order at %s", o)
		}
		prev = o.LSN
		ig.ops[o.LSN] = o
		ig.order = append(ig.order, o.LSN)
		ig.g.AddNode(graph.NodeID(o.LSN))
	}
	// O(n^2) edge construction; histories in this simulator are modest and
	// the write-graph packages maintain their own incremental structures.
	for i, l1 := range ig.order {
		o := ig.ops[l1]
		for _, l2 := range ig.order[i+1:] {
			p := ig.ops[l2]
			var k EdgeKind
			for _, x := range p.WriteSet {
				if o.Reads(x) {
					k |= EdgeReadWrite
				}
				if o.Writes(x) {
					k |= EdgeWriteWrite
				}
			}
			if k != 0 {
				ig.g.AddEdge(graph.NodeID(l1), graph.NodeID(l2))
				ig.kinds[[2]op.SI{l1, l2}] = k
			}
		}
	}
	return ig, nil
}

// Ops returns the history in conflict order.
func (ig *Graph) Ops() []*op.Operation {
	out := make([]*op.Operation, len(ig.order))
	for i, l := range ig.order {
		out[i] = ig.ops[l]
	}
	return out
}

// Op returns the operation with the given LSN, or nil.
func (ig *Graph) Op(lsn op.SI) *op.Operation { return ig.ops[lsn] }

// Len returns the number of operations.
func (ig *Graph) Len() int { return len(ig.order) }

// HasEdge reports whether there is an installation edge from o to p (by LSN).
func (ig *Graph) HasEdge(o, p op.SI) bool {
	return ig.g.HasEdge(graph.NodeID(o), graph.NodeID(p))
}

// EdgeKindOf returns the kind of the edge o -> p (zero if absent).
func (ig *Graph) EdgeKindOf(o, p op.SI) EdgeKind { return ig.kinds[[2]op.SI{o, p}] }

// Digraph exposes a copy of the underlying digraph for analysis.
func (ig *Graph) Digraph() *graph.Digraph { return ig.g.Clone() }

// Predecessors returns the LSNs with installation edges into lsn, ascending.
func (ig *Graph) Predecessors(lsn op.SI) []op.SI {
	ps := ig.g.Pred(graph.NodeID(lsn))
	out := make([]op.SI, len(ps))
	for i, p := range ps {
		out[i] = op.SI(p)
	}
	return out
}

// ---------------------------------------------------------------------------
// Prefix sets, exposed objects, explainable states (the paper's definitions,
// executable).  These are the oracles the test suites check the engine
// against; the engine itself never materializes I.
// ---------------------------------------------------------------------------

// PrefixSet is a set of installed operations, identified by LSN.
type PrefixSet map[op.SI]bool

// NewPrefixSet builds a prefix set from LSNs.
func NewPrefixSet(lsns ...op.SI) PrefixSet {
	s := make(PrefixSet, len(lsns))
	for _, l := range lsns {
		s[l] = true
	}
	return s
}

// Sorted returns the member LSNs in ascending order.
func (s PrefixSet) Sorted() []op.SI {
	out := make([]op.SI, 0, len(s))
	//lint:ignore replaydeterminism key collection is order-independent; sorted below
	for l := range s {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsPrefixSet reports whether I is downward-closed under installation order:
// for every O in I, every installation-graph predecessor of O is also in I.
func (ig *Graph) IsPrefixSet(I PrefixSet) bool {
	//lint:ignore replaydeterminism conjunction over members; the answer is order-independent
	for l := range I {
		if _, ok := ig.ops[l]; !ok {
			return false
		}
		for _, p := range ig.Predecessors(l) {
			if !I[p] {
				return false
			}
		}
	}
	return true
}

// Exposed reports whether object x is exposed by prefix set I, per the
// paper's definition: x is exposed iff (1) no operation in H−I reads or
// writes x, or (2) some operation in H−I touches x and the minimal such
// operation (earliest in conflict order) reads x.
func (ig *Graph) Exposed(I PrefixSet, x op.ObjectID) bool {
	for _, l := range ig.order {
		if I[l] {
			continue
		}
		o := ig.ops[l]
		if o.Touches(x) {
			// Minimal uninstalled toucher: exposed iff it reads x.
			return o.Reads(x)
		}
	}
	// Nothing uninstalled touches x.
	return true
}

// LastWriter returns the LSN of the last operation of I (in conflict order)
// that writes x, or NilSI if no operation in I writes x.
func (ig *Graph) LastWriter(I PrefixSet, x op.ObjectID) op.SI {
	var last op.SI
	for _, l := range ig.order {
		if I[l] && ig.ops[l].Writes(x) {
			last = l
		}
	}
	return last
}

// ValueAfter computes, for every object, the paper's "value of x after the
// last operation of I that writes x": the value that operation produced in
// the history's execution, or the initial value if no operation of I writes
// x.
//
// The initial parameter supplies pre-history object values (objects loaded
// before logging began).
func (ig *Graph) ValueAfter(reg *op.Registry, I PrefixSet, initial map[op.ObjectID][]byte) (map[op.ObjectID][]byte, error) {
	// An operation's effects are pinned to the values it produced in the
	// history's own execution: because write-read edges are discarded, a
	// prefix set may contain a reader without the writer it read, and the
	// reader's installed values embed the writer's effects regardless (see
	// the package comment).  So replay the FULL history from the initial
	// state, and project out, per object, the value written by the last
	// operation of I that writes it.
	state := make(map[op.ObjectID][]byte, len(initial))
	result := make(map[op.ObjectID][]byte, len(initial))
	//lint:ignore replaydeterminism map copy; resulting maps identical in any order
	for k, v := range initial {
		state[k] = append([]byte(nil), v...)
		result[k] = append([]byte(nil), v...)
	}
	for _, l := range ig.order {
		o := ig.ops[l]
		reads := make([][]byte, len(o.ReadSet))
		for i, x := range o.ReadSet {
			reads[i] = state[x]
		}
		writes, err := reg.Apply(o, reads)
		if err != nil {
			return nil, fmt.Errorf("installgraph: replaying %s: %w", o, err)
		}
		for i, x := range o.WriteSet {
			v := writes[i]
			state[x] = v
			if I[l] {
				result[x] = v
				ig.fl.ValueResolve(l, x)
			}
		}
	}
	return result, nil
}

// Explains reports whether prefix set I explains state S: for every object x
// exposed by I, S's value of x equals x's value after the last operation of
// I.  objects enumerates the universe of object ids to check (callers pass
// the union of all objects touched by the history plus any initial objects).
func (ig *Graph) Explains(reg *op.Registry, I PrefixSet, S map[op.ObjectID][]byte, initial map[op.ObjectID][]byte, objects []op.ObjectID) (bool, error) {
	if !ig.IsPrefixSet(I) {
		return false, nil
	}
	want, err := ig.ValueAfter(reg, I, initial)
	if err != nil {
		return false, err
	}
	for _, x := range objects {
		if !ig.Exposed(I, x) {
			continue
		}
		if !op.Equal(S[x], want[x]) {
			return false, nil
		}
	}
	return true, nil
}

// FindExplanation searches for some prefix set I that explains S, trying the
// "leading edge" candidates: for histories produced by our engine the
// natural candidates are the downward closures of each log prefix combined
// with installed-but-unflushed extensions.  This exhaustive oracle tries all
// antichains only for small histories (≤ maxOps) and otherwise falls back to
// prefix-closed candidates derived from log prefixes.  It exists purely for
// test-oracle use.
func (ig *Graph) FindExplanation(reg *op.Registry, S map[op.ObjectID][]byte, initial map[op.ObjectID][]byte, objects []op.ObjectID, maxOps int) (PrefixSet, bool, error) {
	n := len(ig.order)
	if n <= maxOps && n <= 20 {
		// Exhaustive over subsets (downward-closed only).
		for mask := 0; mask < 1<<uint(n); mask++ {
			I := make(PrefixSet)
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					I[ig.order[i]] = true
				}
			}
			if !ig.IsPrefixSet(I) {
				continue
			}
			ok, err := ig.Explains(reg, I, S, initial, objects)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return I, true, nil
			}
		}
		return nil, false, nil
	}
	// Large histories: try each log prefix (always prefix sets, since
	// installation edges respect conflict order).
	for i := n; i >= 0; i-- {
		I := make(PrefixSet, i)
		for _, l := range ig.order[:i] {
			I[l] = true
		}
		ok, err := ig.Explains(reg, I, S, initial, objects)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return I, true, nil
		}
	}
	return nil, false, nil
}

// MinimalUninstalled returns the LSNs of the minimal uninstalled operations
// of H − I: uninstalled operations all of whose installation predecessors
// are installed.  Theorem 1: any such operation is applicable to a state
// explained by I and installing it preserves explainability.
func (ig *Graph) MinimalUninstalled(I PrefixSet) []op.SI {
	var out []op.SI
	for _, l := range ig.order {
		if I[l] {
			continue
		}
		minimal := true
		for _, p := range ig.Predecessors(l) {
			if !I[p] {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, l)
		}
	}
	return out
}

// Extend returns I ∪ {lsn} (the paper's extend(I,O)); it panics if the
// result would not be a prefix set, which signals a harness bug.
func (ig *Graph) Extend(I PrefixSet, lsn op.SI) PrefixSet {
	out := make(PrefixSet, len(I)+1)
	//lint:ignore replaydeterminism set copy; resulting map identical in any order
	for l := range I {
		out[l] = true
	}
	out[lsn] = true
	if !ig.IsPrefixSet(out) {
		panic(fmt.Sprintf("installgraph: extend(I, %d) is not a prefix set", lsn))
	}
	return out
}

// TouchedObjects returns the canonical union of all objects read or written
// by the history.
func (ig *Graph) TouchedObjects() []op.ObjectID {
	var ids []op.ObjectID
	for _, l := range ig.order {
		o := ig.ops[l]
		ids = append(ids, o.ReadSet...)
		ids = append(ids, o.WriteSet...)
	}
	return op.Canonicalize(ids)
}
