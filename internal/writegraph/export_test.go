package writegraph

import "logicallog/internal/graph"

// Successors and Predecessors expose a node's adjacency to the external
// tests.
func (wg *Graph) Successors(id graph.NodeID) []graph.NodeID {
	if n := wg.node(id); n != nil {
		return nodeIDs(n.succ)
	}
	return nil
}

func (wg *Graph) Predecessors(id graph.NodeID) []graph.NodeID {
	if n := wg.node(id); n != nil {
		return nodeIDs(n.pred)
	}
	return nil
}

// edgeCount returns the number of edges.
func (wg *Graph) edgeCount() int {
	n := 0
	for v := wg.first; v != nil; v = v.next {
		n += len(v.succ)
	}
	return n
}
