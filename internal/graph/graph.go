// Package graph provides the batch directed-graph kit: successor/predecessor
// tracking, Tarjan strongly-connected components, topological ordering,
// minimal (predecessor-free) node enumeration, and union-find over dense
// indices.  The installation graph and the batch write graph BuildW are
// built with it, and the incremental write graph's Validate rebuilds its
// edges as a Digraph to check them; the incremental write graph itself keeps
// its edges on its own nodes.
//
// Nodes are opaque int64 ids chosen by the caller.  The graph is a simple
// digraph: parallel edges are coalesced and self-loops are representable but
// reported by Validate (write graphs must not contain them after collapse).
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a node.  Callers allocate ids; the graph never invents
// them.
type NodeID int64

// Digraph is a mutable directed graph.  The zero value is not usable; call
// New.
//
// Each node's successors and predecessors are kept sorted ascending, so
// adjacency is read in id order without sorting and an edge is found by
// binary search.
type Digraph struct {
	succ map[NodeID]IDSet
	pred map[NodeID]IDSet
}

// New returns an empty digraph.
func New() *Digraph {
	return &Digraph{
		succ: make(map[NodeID]IDSet),
		pred: make(map[NodeID]IDSet),
	}
}

// AddNode ensures n exists.  Adding an existing node is a no-op.
func (g *Digraph) AddNode(n NodeID) {
	if _, ok := g.succ[n]; !ok {
		g.succ[n] = nil
		g.pred[n] = nil
	}
}

// AddEdge inserts the edge u -> v, creating the endpoints as needed.
// Parallel edges coalesce.
func (g *Digraph) AddEdge(u, v NodeID) {
	g.AddNode(u)
	g.AddNode(v)
	if g.succ[u].Has(v) {
		return
	}
	g.succ[u] = g.succ[u].With(v)
	g.pred[v] = g.pred[v].With(u)
}

// HasEdge reports whether the edge u -> v exists.
func (g *Digraph) HasEdge(u, v NodeID) bool { return g.succ[u].Has(v) }

// Len returns the number of nodes.
func (g *Digraph) Len() int { return len(g.succ) }

// Nodes returns all node ids in ascending order.
func (g *Digraph) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.succ))
	//lint:ignore replaydeterminism key collection is order-independent; sorted below
	for n := range g.succ {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Succ returns n's successors in ascending order.
func (g *Digraph) Succ(n NodeID) []NodeID {
	return append(make([]NodeID, 0, len(g.succ[n])), g.succ[n]...)
}

// Pred returns n's predecessors in ascending order.
func (g *Digraph) Pred(n NodeID) []NodeID {
	return append(make([]NodeID, 0, len(g.pred[n])), g.pred[n]...)
}

// Minimal returns the nodes with no predecessors, ascending.  These are the
// write-graph nodes whose flush installs their operations (Figure 4's
// "choose a minimal node v in W").
func (g *Digraph) Minimal() []NodeID {
	var out []NodeID
	for _, n := range g.Nodes() {
		if len(g.pred[n]) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Digraph) Clone() *Digraph {
	c := New()
	//lint:ignore replaydeterminism edge-set copy; resulting maps identical in any order
	for n, s := range g.succ {
		c.succ[n] = slices.Clone(s)
		c.pred[n] = slices.Clone(g.pred[n])
	}
	return c
}

// HasCycle reports whether g contains a directed cycle (self-loops count).
func (g *Digraph) HasCycle() bool {
	for _, comp := range g.SCC() {
		if len(comp) > 1 {
			return true
		}
		if g.HasEdge(comp[0], comp[0]) {
			return true
		}
	}
	return false
}

// SCC returns the strongly connected components of g using Tarjan's
// algorithm (iterative, so deep graphs cannot overflow the goroutine stack).
// Components are returned in reverse topological order: Tarjan emits a
// component only after every other component it can reach, so for each
// edge u -> v between two components, v's comes first.  Node ids are sorted
// within each component.
func (g *Digraph) SCC() [][]NodeID {
	nodes := g.Nodes()
	index := make(map[NodeID]int, len(nodes))
	low := make(map[NodeID]int, len(nodes))
	onStack := make(map[NodeID]bool, len(nodes))
	var stack []NodeID
	var comps [][]NodeID
	next := 0

	type frame struct {
		n     NodeID
		succs IDSet
		i     int
	}
	for _, root := range nodes {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{n: root, succs: g.succ[root]}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(f.succs) {
				s := f.succs[f.i]
				f.i++
				if _, seen := index[s]; !seen {
					index[s], low[s] = next, next
					next++
					stack = append(stack, s)
					onStack[s] = true
					frames = append(frames, frame{n: s, succs: g.succ[s]})
				} else if onStack[s] && index[s] < low[f.n] {
					low[f.n] = index[s]
				}
				continue
			}
			// All successors explored: maybe emit a component.
			if low[f.n] == index[f.n] {
				var comp []NodeID
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == f.n {
						break
					}
				}
				sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
				comps = append(comps, comp)
			}
			n := f.n
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[n] < low[p.n] {
					low[p.n] = low[n]
				}
			}
		}
	}
	return comps
}

// TopoOrder returns a topological ordering of g's nodes.  It returns an
// error if g is cyclic.  Ties break by ascending node id, so the order is
// deterministic.
func (g *Digraph) TopoOrder() ([]NodeID, error) {
	indeg := make(map[NodeID]int, len(g.succ))
	//lint:ignore replaydeterminism independent per-key writes
	for n := range g.succ {
		indeg[n] = len(g.pred[n])
	}
	// The ready list is an IDSet, so it stays sorted as nodes join it and
	// the smallest ready node is always first.
	ready := IDSet(g.Minimal())
	var order []NodeID
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, s := range g.succ[n] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = ready.With(s)
			}
		}
	}
	if len(order) != len(g.succ) {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d nodes ordered)", len(order), len(g.succ))
	}
	return order, nil
}

// Validate checks structural invariants: pred/succ symmetry, absence of
// dangling endpoints and strictly ascending adjacency.  Used by tests and by
// the write-graph packages after mutation-heavy phases.
func (g *Digraph) Validate() error {
	//lint:ignore replaydeterminism invariant scan; any violation fails, which one is reported is immaterial
	for u, s := range g.succ {
		if !sorted(s) {
			return fmt.Errorf("graph: successors of %d not strictly ascending: %v", u, s)
		}
		for _, v := range s {
			p, ok := g.pred[v]
			if !ok {
				return fmt.Errorf("graph: edge %d->%d has dangling head", u, v)
			}
			if !p.Has(u) {
				return fmt.Errorf("graph: edge %d->%d missing from pred index", u, v)
			}
		}
	}
	//lint:ignore replaydeterminism invariant scan; any violation fails, which one is reported is immaterial
	for v, p := range g.pred {
		if !sorted(p) {
			return fmt.Errorf("graph: predecessors of %d not strictly ascending: %v", v, p)
		}
		for _, u := range p {
			if _, ok := g.succ[u]; !ok {
				return fmt.Errorf("graph: edge %d->%d has dangling tail", u, v)
			}
			if !g.HasEdge(u, v) {
				return fmt.Errorf("graph: edge %d->%d missing from succ index", u, v)
			}
		}
	}
	return nil
}

func sorted(s []NodeID) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// IDSet is a set of node ids kept in ascending order, so iterating it is
// deterministic and membership is a binary search.  The nil IDSet is empty.
type IDSet []NodeID

// Has reports whether n is in s.
func (s IDSet) Has(n NodeID) bool {
	_, found := slices.BinarySearch(s, n)
	return found
}

// With returns s plus n; s's backing array may be reused.
func (s IDSet) With(n NodeID) IDSet {
	i, found := slices.BinarySearch(s, n)
	if found {
		return s
	}
	return slices.Insert(s, i, n)
}
