package writegraph

import (
	"logicallog/internal/graph"
	"logicallog/internal/installgraph"
	"logicallog/internal/op"
)

// BuildW computes the write graph W from a set of uninstalled operations by
// the literal batch procedure of Figure 3:
//
//	T <- transitive closure of O ~ P iff writeset(O) ∩ writeset(P) ≠ ∅
//	V <- collapse In with respect to the equivalence classes of T
//	S <- strongly connected components of V
//	W <- collapse V with respect to S   (making W acyclic)
//
// The result is returned as an incremental Graph (PolicyW) with equivalent
// node contents, so the same inspection API applies.  BuildW exists both as
// the reference implementation the incremental path is tested against and
// for harness use.
func BuildW(history []*op.Operation) (*Graph, error) {
	in, err := installgraph.Build(history)
	if err != nil {
		return nil, err
	}
	// First collapse: transitive closure of writeset overlap.
	nodes := make([]graph.NodeID, 0, len(history))
	for _, o := range history {
		nodes = append(nodes, graph.NodeID(o.LSN))
	}
	var related [][2]graph.NodeID
	for i, o := range history {
		for _, p := range history[i+1:] {
			if writesetsOverlap(o, p) {
				related = append(related, [2]graph.NodeID{graph.NodeID(o.LSN), graph.NodeID(p.LSN)})
			}
		}
	}
	part1 := graph.TransitiveClosurePartition(nodes, related)
	v, err := in.Digraph().Collapse(part1)
	if err != nil {
		return nil, err
	}
	// Second collapse: SCC condensation makes the result acyclic.
	part2 := v.CondensationPartition()
	w, err := v.Collapse(part2)
	if err != nil {
		return nil, err
	}

	// Materialize as a Graph.  Class representative for an operation LSN l:
	// part2[part1[l]].
	out := New(PolicyW)
	classOf := func(l op.SI) graph.NodeID { return part2[part1[graph.NodeID(l)]] }
	byClass := map[graph.NodeID]*node{}
	for _, o := range history {
		c := classOf(o.LSN)
		nd, ok := byClass[c]
		if !ok {
			nd = out.newNode()
			byClass[c] = nd
		}
		out.resolve(o)
		out.attachOp(nd, o)
		out.trackReadsWrites(nd)
	}
	for _, u := range w.Nodes() {
		for _, s := range w.Succ(u) {
			out.link(byClass[u], byClass[s])
		}
	}
	// Rebuild the order list in a topological order of the collapsed graph.
	order, err := out.digraph().TopoOrder()
	if err != nil {
		return nil, err
	}
	out.first, out.last = nil, nil
	for _, id := range order {
		out.place(out.last, out.node(id))
	}
	return out, nil
}

func writesetsOverlap(o, p *op.Operation) bool {
	for _, x := range o.WriteSet {
		if p.Writes(x) {
			return true
		}
	}
	return false
}
