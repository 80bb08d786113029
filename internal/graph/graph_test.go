package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestAddRemoveBasics(t *testing.T) {
	g := New()
	g.AddNode(1)
	g.AddNode(1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 2) // parallel edges coalesce
	g.AddEdge(2, 3)
	if g.Len() != 3 || g.EdgeCount() != 2 {
		t.Fatalf("Len=%d EdgeCount=%d", g.Len(), g.EdgeCount())
	}
	if !g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Error("HasEdge wrong")
	}
	if !reflect.DeepEqual(g.Succ(1), []NodeID{2}) || !reflect.DeepEqual(g.Pred(3), []NodeID{2}) {
		t.Error("Succ/Pred wrong")
	}
	if g.InDegree(2) != 1 || g.OutDegree(2) != 1 {
		t.Error("degrees wrong")
	}
	g.RemoveEdge(1, 2)
	if g.HasEdge(1, 2) || g.EdgeCount() != 1 {
		t.Error("RemoveEdge failed")
	}
	g.AddEdge(1, 2)
	g.RemoveNode(2)
	if g.HasNode(2) || g.EdgeCount() != 0 || g.Len() != 2 {
		t.Error("RemoveNode failed to clean incident edges")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMinimal(t *testing.T) {
	g := New()
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddNode(4)
	if got := g.Minimal(); !reflect.DeepEqual(got, []NodeID{1, 2, 4}) {
		t.Errorf("Minimal = %v", got)
	}
	g.RemoveNode(1)
	g.RemoveNode(2)
	if got := g.Minimal(); !reflect.DeepEqual(got, []NodeID{3, 4}) {
		t.Errorf("Minimal after removal = %v", got)
	}
}

func TestReachable(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1) // cycle
	g.AddNode(9)
	if !g.Reachable(1, 3) || !g.Reachable(3, 2) || !g.Reachable(1, 1) {
		t.Error("Reachable within cycle failed")
	}
	if g.Reachable(1, 9) || g.Reachable(9, 1) {
		t.Error("Reachable to isolated node")
	}
	if g.Reachable(1, 100) || g.Reachable(100, 1) {
		t.Error("Reachable with missing node")
	}
}

func TestSCCSimple(t *testing.T) {
	g := New()
	// Two cycles {1,2,3} and {4,5}, plus bridge 3->4 and isolated 6.
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 4)
	g.AddNode(6)
	comps := g.SCC()
	sets := map[int][]NodeID{}
	for _, c := range comps {
		sets[len(c)] = append(sets[len(c)], c...)
	}
	if len(comps) != 3 {
		t.Fatalf("SCC count = %d, want 3: %v", len(comps), comps)
	}
	found3, found2 := false, false
	for _, c := range comps {
		switch len(c) {
		case 3:
			found3 = reflect.DeepEqual(c, []NodeID{1, 2, 3})
		case 2:
			found2 = reflect.DeepEqual(c, []NodeID{4, 5})
		}
	}
	if !found3 || !found2 {
		t.Errorf("SCC components wrong: %v", comps)
	}
}

func TestSCCDeepChainNoOverflow(t *testing.T) {
	// 200k-node chain: a recursive Tarjan would overflow; ours must not.
	g := New()
	const n = 200_000
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1))
	}
	if got := len(g.SCC()); got != n {
		t.Errorf("SCC on chain = %d components, want %d", got, n)
	}
}

func TestHasCycle(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	if g.HasCycle() {
		t.Error("acyclic graph reported cyclic")
	}
	g.AddEdge(3, 1)
	if !g.HasCycle() {
		t.Error("cycle not detected")
	}
	h := New()
	h.AddEdge(7, 7)
	if !h.HasCycle() {
		t.Error("self-loop not detected")
	}
}

func TestTopoOrder(t *testing.T) {
	g := New()
	g.AddEdge(3, 1)
	g.AddEdge(3, 2)
	g.AddEdge(1, 2)
	g.AddNode(0)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[NodeID]int{}
	for i, n := range order {
		pos[n] = i
	}
	if pos[3] > pos[1] || pos[1] > pos[2] || pos[3] > pos[2] {
		t.Errorf("topo order violates edges: %v", order)
	}
	// Determinism: 0 has no constraints and smallest id, so it comes first.
	if order[0] != 0 {
		t.Errorf("expected deterministic tie-break, got %v", order)
	}
	g.AddEdge(2, 3)
	if _, err := g.TopoOrder(); err == nil {
		t.Error("TopoOrder on cyclic graph must error")
	}
}

func TestCollapse(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 3)
	// Collapse {1,2} together.
	part := map[NodeID]NodeID{1: 10, 2: 10, 3: 30}
	c, err := g.Collapse(part)
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
	if _, err := g.Collapse(map[NodeID]NodeID{1: 1}); err == nil {
		t.Error("Collapse with incomplete partition must error")
	}
}

func TestCondensationMakesAcyclic(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 3)
	cond, err := g.Collapse(g.CondensationPartition())
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
		g := New()
		n := 2 + rng.Intn(30)
		for i := 0; i < n; i++ {
			g.AddNode(NodeID(i))
		}
		edges := rng.Intn(3 * n)
		for i := 0; i < edges; i++ {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		cond, err := g.Collapse(g.CondensationPartition())
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

func TestClone(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	c := g.Clone()
	c.AddEdge(2, 3)
	if g.HasNode(3) || g.EdgeCount() != 1 {
		t.Error("Clone aliased the original")
	}
	if !c.HasEdge(1, 2) || !c.HasEdge(2, 3) {
		t.Error("Clone incomplete")
	}
}

func TestTransitiveClosurePartition(t *testing.T) {
	nodes := []NodeID{1, 2, 3, 4, 5}
	related := [][2]NodeID{{1, 2}, {2, 3}, {4, 5}}
	part := TransitiveClosurePartition(nodes, related)
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

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind()
	uf.Add(1)
	uf.Add(1)
	if !uf.Has(1) || uf.Has(2) {
		t.Error("Has wrong")
	}
	uf.Union(1, 2)
	uf.Union(3, 4)
	if !uf.Same(1, 2) || uf.Same(1, 3) {
		t.Error("Union/Same wrong")
	}
	if uf.SetSize(1) != 2 || uf.SetSize(3) != 2 {
		t.Errorf("SetSize = %d, %d", uf.SetSize(1), uf.SetSize(3))
	}
	uf.Union(2, 3)
	if !uf.Same(1, 4) || uf.SetSize(4) != 4 {
		t.Error("transitive union failed")
	}
	// Union of already-united elements is a no-op.
	r := uf.Union(1, 4)
	if r != uf.Find(1) {
		t.Error("Union of same set changed representative")
	}
}

func TestUnionFindManyElements(t *testing.T) {
	uf := NewUnionFind()
	const n = 10000
	for i := 0; i < n; i++ {
		uf.Union(NodeID(i), NodeID((i+1)%n))
	}
	if uf.SetSize(0) != n {
		t.Errorf("SetSize = %d, want %d", uf.SetSize(0), n)
	}
	rep := uf.Find(0)
	for i := 1; i < n; i += 997 {
		if uf.Find(NodeID(i)) != rep {
			t.Fatalf("element %d has different representative", i)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	// Corrupt the pred index directly.
	g.pred[2] = nil
	if err := g.Validate(); err == nil {
		t.Error("Validate missed pred corruption")
	}
	h := New()
	h.AddEdge(1, 2)
	h.succ[1] = nil
	if err := h.Validate(); err == nil {
		t.Error("Validate missed succ corruption")
	}
	u := New()
	u.AddEdge(1, 2)
	u.AddEdge(1, 3)
	u.succ[1][0], u.succ[1][1] = 3, 2
	if err := u.Validate(); err == nil {
		t.Error("Validate missed unsorted adjacency")
	}
}

// TestAdjacencyStaysSortedUnderChurn cross-checks the sorted adjacency lists
// against a reference adjacency matrix through random inserts and removals.
func TestAdjacencyStaysSortedUnderChurn(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(5))
	g := New()
	var ref [n][n]bool
	for i := 0; i < 4000; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(5) {
		case 0:
			g.RemoveEdge(NodeID(u), NodeID(v))
			ref[u][v] = false
		case 1:
			if rng.Intn(8) == 0 {
				g.RemoveNode(NodeID(u))
				for w := 0; w < n; w++ {
					ref[u][w], ref[w][u] = false, false
				}
			}
		default:
			g.AddEdge(NodeID(u), NodeID(v))
			ref[u][v] = true
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	edges := 0
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if ref[u][v] {
				edges++
			}
			if g.HasEdge(NodeID(u), NodeID(v)) != ref[u][v] {
				t.Fatalf("HasEdge(%d, %d) = %v, reference says %v", u, v, !ref[u][v], ref[u][v])
			}
		}
	}
	if g.EdgeCount() != edges {
		t.Fatalf("EdgeCount = %d, reference has %d", g.EdgeCount(), edges)
	}
}

func TestIDSet(t *testing.T) {
	var s IDSet
	for _, n := range []NodeID{5, 1, 3, 5, 1} {
		s = s.With(n)
	}
	if !reflect.DeepEqual(s, IDSet{1, 3, 5}) {
		t.Fatalf("With = %v, want [1 3 5]", s)
	}
	if !s.Has(3) || s.Has(4) {
		t.Error("Has wrong")
	}
	s = s.Without(3).Without(4)
	if !reflect.DeepEqual(s, IDSet{1, 5}) {
		t.Errorf("Without = %v, want [1 5]", s)
	}
}
