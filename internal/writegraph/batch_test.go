package writegraph

import (
	"fmt"
	"math/rand"
	"testing"

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
// node contents, so the same inspection API applies.  BuildW is the
// reference implementation the incremental path is tested against; it lives
// in a test file so the engine never imports the installgraph oracle.
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
	part1 := transitiveClosurePartition(nodes, related)
	v, err := collapse(in.Digraph(), part1)
	if err != nil {
		return nil, err
	}
	// Second collapse: SCC condensation makes the result acyclic.
	part2 := condensationPartition(v)
	w, err := collapse(v, part2)
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

// collapse collapses g with respect to a partition of its nodes, exactly as
// in Figure 3 of the paper: the result has one node per partition class, and
// an edge between classes v and w iff some edge of g connects a member of v
// to a member of w.  Self-edges created by intra-class edges are dropped
// (they carry no flush-ordering information once the class flushes
// atomically).
//
// partition maps every node of g to its class id; nodes sharing a class id
// collapse together.  Class ids become the node ids of the result.
func collapse(g *graph.Digraph, partition map[graph.NodeID]graph.NodeID) (*graph.Digraph, error) {
	out := graph.New()
	for _, n := range g.Nodes() {
		c, ok := partition[n]
		if !ok {
			return nil, fmt.Errorf("node %d missing from partition", n)
		}
		out.AddNode(c)
	}
	for _, u := range g.Nodes() {
		for _, v := range g.Succ(u) {
			if cu, cv := partition[u], partition[v]; cu != cv {
				out.AddEdge(cu, cv)
			}
		}
	}
	return out, nil
}

// condensationPartition returns a partition mapping each node to the
// smallest node id of its strongly connected component.  Feeding this to
// collapse yields the condensation of g, which is acyclic — the second
// collapse of Figure 3 ("collapsing V made W acyclic").
func condensationPartition(g *graph.Digraph) map[graph.NodeID]graph.NodeID {
	part := make(map[graph.NodeID]graph.NodeID, g.Len())
	for _, comp := range g.SCC() {
		for _, n := range comp {
			part[n] = comp[0] // components are sorted ascending
		}
	}
	return part
}

// transitiveClosurePartition computes the partition induced by the
// transitive closure of a symmetric "related" relation over nodes — the
// first collapse of Figure 3, where O ~ P iff writeset(O) ∩ writeset(P) ≠ ∅.
// It is union-find over the nodes' positions, so each class is represented
// by its first member in nodes.  Every related pair must name members of
// nodes.
func transitiveClosurePartition(nodes []graph.NodeID, related [][2]graph.NodeID) map[graph.NodeID]graph.NodeID {
	index := make(map[graph.NodeID]int, len(nodes))
	for i, n := range nodes {
		index[n] = i
	}
	uf := graph.NewUnionFind(len(nodes))
	for _, pair := range related {
		uf.Union(index[pair[0]], index[pair[1]])
	}
	part := make(map[graph.NodeID]graph.NodeID, len(nodes))
	for i, n := range nodes {
		part[n] = nodes[uf.Find(i)]
	}
	return part
}

func TestCollapse(t *testing.T) {
	g := graph.New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 3)
	// Collapse {1,2} together.
	part := map[graph.NodeID]graph.NodeID{1: 10, 2: 10, 3: 30}
	c, err := collapse(g, part)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("collapsed Len = %d", c.Len())
	}
	if !c.HasEdge(10, 30) {
		t.Error("collapsed edge missing")
	}
	if c.HasEdge(10, 10) {
		t.Error("intra-class edge must be dropped")
	}
	// Missing partition entry errors.
	if _, err := collapse(g, map[graph.NodeID]graph.NodeID{1: 1}); err == nil {
		t.Error("Collapse with incomplete partition must error")
	}
}

func TestCondensationMakesAcyclic(t *testing.T) {
	g := graph.New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 3)
	cond, err := collapse(g, condensationPartition(g))
	if err != nil {
		t.Fatal(err)
	}
	if cond.HasCycle() {
		t.Error("condensation must be acyclic")
	}
	if cond.Len() != 2 {
		t.Errorf("condensation Len = %d, want 2", cond.Len())
	}
	if !cond.HasEdge(1, 3) {
		t.Error("condensation lost inter-component edge")
	}
}

func TestCondensationRandomProperty(t *testing.T) {
	// Property: for random graphs, the condensation is always acyclic and
	// node count equals the SCC count.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		g := graph.New()
		n := 2 + rng.Intn(30)
		for i := 0; i < n; i++ {
			g.AddNode(graph.NodeID(i))
		}
		edges := rng.Intn(3 * n)
		for i := 0; i < edges; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		cond, err := collapse(g, condensationPartition(g))
		if err != nil {
			t.Fatal(err)
		}
		if cond.HasCycle() {
			t.Fatalf("trial %d: condensation cyclic", trial)
		}
		if cond.Len() != len(g.SCC()) {
			t.Fatalf("trial %d: condensation Len %d != SCC count %d", trial, cond.Len(), len(g.SCC()))
		}
		if _, err := cond.TopoOrder(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestTransitiveClosurePartition(t *testing.T) {
	nodes := []graph.NodeID{1, 2, 3, 4, 5}
	related := [][2]graph.NodeID{{1, 2}, {2, 3}, {4, 5}}
	part := transitiveClosurePartition(nodes, related)
	if part[1] != part[2] || part[2] != part[3] {
		t.Error("1,2,3 must share a class")
	}
	if part[4] != part[5] {
		t.Error("4,5 must share a class")
	}
	if part[1] == part[4] {
		t.Error("distinct classes merged")
	}
}
