package writegraph

import "logicallog/internal/graph"

// Successors and Predecessors expose a node's adjacency to the external
// tests.
func (wg *Graph) Successors(id graph.NodeID) []graph.NodeID   { return wg.g.Succ(id) }
func (wg *Graph) Predecessors(id graph.NodeID) []graph.NodeID { return wg.g.Pred(id) }
