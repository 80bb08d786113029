package writegraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"logicallog/internal/graph"
	"logicallog/internal/op"
)

// randomNodes returns a graph of n bare nodes (no operations or objects)
// joined by random edges, cycles allowed, and the nodes in id order.
func randomNodes(rng *rand.Rand, n, edges int) (*Graph, []*node) {
	wg := New(PolicyRW)
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = wg.newNode()
	}
	for i := 0; i < edges; i++ {
		if u, v := nodes[rng.Intn(n)], nodes[rng.Intn(n)]; u != v {
			wg.link(u, v)
		}
	}
	return wg, nodes
}

// markB stamps the nodes for which in returns true with a fresh epoch, as
// ancestors does for the set B.
func markB(wg *Graph, nodes []*node, in func(*node) bool) {
	wg.epoch++
	for _, n := range nodes {
		if in(n) {
			n.mark = wg.epoch
		}
	}
}

// componentIDs returns what components left in comps, as ids.
func componentIDs(wg *Graph) [][]graph.NodeID {
	var out [][]graph.NodeID
	begin := 0
	for _, end := range wg.compEnds {
		out = append(out, nodeIDs(wg.comps[begin:end]))
		begin = end
	}
	return out
}

// TestTarjanOnNodesReverseTopological pins the order the order repair
// relies on: on random digraphs, over all nodes or a random subset B, for
// every edge u -> v between two different components of B, v's component
// is emitted before u's; and the components, each sorted by id, are the
// ones graph.Digraph.SCC finds in the subgraph B induces.
func TestTarjanOnNodesReverseTopological(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		wg, nodes := randomNodes(rng, n, rng.Intn(3*n))
		drop := map[*node]bool{}
		if trial%2 == 1 {
			for i := 0; i < n/4; i++ {
				drop[nodes[rng.Intn(n)]] = true
			}
		}
		markB(wg, nodes, func(v *node) bool { return !drop[v] })
		var roots []*node
		for _, i := range rng.Perm(n) {
			if !drop[nodes[i]] {
				roots = append(roots, nodes[i])
			}
		}
		wg.components(roots)
		comps := componentIDs(wg)

		pos := map[graph.NodeID]int{}
		for i, comp := range comps {
			if !slices.IsSorted(comp) {
				t.Fatalf("trial %d: component %v not sorted by id", trial, comp)
			}
			for _, v := range comp {
				if _, dup := pos[v]; dup {
					t.Fatalf("trial %d: node %d in two components", trial, v)
				}
				pos[v] = i
			}
		}
		if len(pos) != len(roots) {
			t.Fatalf("trial %d: components cover %d of %d nodes of B", trial, len(pos), len(roots))
		}
		ref := graph.New()
		for _, u := range roots {
			ref.AddNode(u.id)
			for _, v := range u.succ {
				if !drop[v] {
					ref.AddEdge(u.id, v.id)
					if pos[v.id] > pos[u.id] {
						t.Fatalf("trial %d: edge %d->%d, but %d's component is emitted at %d, after %d's at %d",
							trial, u.id, v.id, v.id, pos[v.id], u.id, pos[u.id])
					}
				}
			}
		}
		want := ref.SCC()
		slices.SortFunc(want, func(a, b []graph.NodeID) int { return int(a[0] - b[0]) })
		got := slices.Clone(comps)
		slices.SortFunc(got, func(a, b []graph.NodeID) int { return int(a[0] - b[0]) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: components %v, graph.Digraph.SCC gives %v", trial, got, want)
		}
	}
}

// TestTarjanFollowsOnlyMarkedNodes: a cycle through a node outside B is not
// a component of the subgraph B induces.
func TestTarjanFollowsOnlyMarkedNodes(t *testing.T) {
	wg := New(PolicyRW)
	n := make([]*node, 6)
	for i := 1; i < len(n); i++ {
		n[i] = wg.newNode()
	}
	for _, e := range [][2]int{{1, 2}, {2, 3}, {3, 1}, {2, 4}, {4, 5}, {5, 2}} {
		wg.link(n[e[0]], n[e[1]])
	}
	markB(wg, n[1:], func(v *node) bool { return v != n[3] })
	wg.components([]*node{n[1], n[2], n[4], n[5]})
	want := [][]graph.NodeID{{2, 4, 5}, {1}}
	if got := componentIDs(wg); !reflect.DeepEqual(got, want) {
		t.Errorf("components = %v, want %v (reverse topological order)", got, want)
	}
}

// TestMinimalSetUnderChurn checks the maintained minimal set against a scan
// of the node-held predecessor lists, and against the in-degrees of the
// graph.Digraph Validate rebuilds, after each step of a random walk of node
// creation, edge insertion (cycles allowed), absorb and removal.
func TestMinimalSetUnderChurn(t *testing.T) {
	check := func(wg *Graph, seed int64, step int, what string) {
		t.Helper()
		var want []graph.NodeID
		for _, n := range wg.nodes {
			if !n.gone && len(n.pred) == 0 {
				want = append(want, n.id)
			}
		}
		if got := wg.Minimal(); !slices.Equal(got, want) {
			t.Fatalf("seed %d step %d (%s): Minimal = %v, scan gives %v", seed, step, what, got, want)
		}
		first, ok := wg.FirstMinimal()
		if ok != (len(want) > 0) || ok && first != want[0] {
			t.Fatalf("seed %d step %d (%s): FirstMinimal = %d, %v; scan gives %v", seed, step, what, first, ok, want)
		}
		if got := wg.digraph().Minimal(); !slices.Equal(got, want) {
			t.Fatalf("seed %d step %d (%s): in-degrees give %v, scan gives %v", seed, step, what, got, want)
		}
		for id := range wg.nextID {
			if n := wg.node(id); n != nil && wg.IsMinimal(id) != (len(n.pred) == 0) {
				t.Fatalf("seed %d step %d (%s): IsMinimal(%d) disagrees with its predecessors", seed, step, what, id)
			}
		}
		if err := wg.validateEdges(); err != nil {
			t.Fatalf("seed %d step %d (%s): %v", seed, step, what, err)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wg := New(PolicyRW)
		var live []*node
		pick := func() *node { return live[rng.Intn(len(live))] }
		drop := func(n *node) { live = slices.DeleteFunc(live, func(m *node) bool { return m == n }) }
		for step := 0; step < 500; step++ {
			var what string
			switch r := rng.Intn(20); {
			case r < 4 || len(live) < 2:
				n := wg.newNode()
				live = append(live, n)
				what = fmt.Sprintf("newNode() = %d", n.id)
			case r < 12:
				u, v := pick(), pick()
				if u == v {
					continue
				}
				what = fmt.Sprintf("link(%d, %d)", u.id, v.id)
				wg.link(u, v)
			case r < 15:
				s, v := pick(), pick()
				if s == v {
					continue
				}
				what = fmt.Sprintf("absorb(%d, %d)", s.id, v.id)
				wg.absorb(s, v)
				drop(v)
			case r < 18:
				// Half the time remove the first minimal node, the way an
				// install drain does; otherwise any node.
				n := pick()
				if first, ok := wg.FirstMinimal(); ok && rng.Intn(2) == 0 {
					n = wg.node(first)
				}
				what = fmt.Sprintf("remove(%d)", n.id)
				if len(n.pred) == 0 {
					if _, err := wg.Remove(n.id); err != nil {
						t.Fatal(err)
					}
				} else {
					wg.unlinkAll(n)
					wg.unlink(n)
					wg.retire(n)
				}
				drop(n)
			default:
				for _, n := range slices.Clone(live) {
					if _, err := wg.Remove(n.id); err == nil {
						drop(n)
					}
				}
				what = "remove every minimal node"
			}
			wg.disordered = wg.disordered[:0]
			check(wg, seed, step, what)
		}
	}
}

// TestAbsorbKeepsConflictOrder: a cycle collapse whose survivor, the
// smaller id, holds fewer and later operations than its victim appends the
// victim's older operations after its own; both snapshots must still list
// them in LSN order.
func TestAbsorbKeepsConflictOrder(t *testing.T) {
	wg := New(PolicyRW)
	var lsn op.SI
	add := func(reads, writes []op.ObjectID) {
		t.Helper()
		lsn++
		addAll(t, wg, mkop(lsn, reads, writes))
	}
	A, B := []op.ObjectID{"A"}, []op.ObjectID{"B"}
	add(nil, A) // node 1
	for i := 0; i < 10; i++ {
		add(B, B) // node 2: exp(B) merges every one
	}
	add([]op.ObjectID{"A", "B"}, A) // node 1, now a reader of B
	add([]op.ObjectID{"A", "B"}, B) // node 2: edge 1 -> 2; now a reader of A
	a, _ := wg.NodeOf("A")
	b, _ := wg.NodeOf("B")
	if a != 1 || b != 2 || len(wg.node(1).ops) != 2 || len(wg.node(2).ops) != 11 {
		t.Fatalf("before the collapse: A in %d (%d ops), B in %d (%d ops); want 1 (2) and 2 (11)",
			a, len(wg.node(a).ops), b, len(wg.node(b).ops))
	}
	add(A, A) // node 1: edge 2 -> 1 closes the cycle
	if wg.Len() != 1 || wg.CycleCollapses() != 1 {
		t.Fatalf("Len = %d, collapses = %d; want 1 and 1", wg.Len(), wg.CycleCollapses())
	}
	if n := wg.node(1); n == nil || !n.unsorted {
		t.Fatal("the survivor should hold its victim's operations unsorted until read")
	}
	want := make([]op.SI, lsn)
	for i := range want {
		want[i] = op.SI(i + 1)
	}
	lsns := func(ops []*op.Operation) []op.SI {
		var out []op.SI
		for _, o := range ops {
			out = append(out, o.LSN)
		}
		return out
	}
	if got := lsns(wg.Node(1).Ops); !slices.Equal(got, want) {
		t.Errorf("Node(1).Ops = %v, want %v", got, want)
	}
	v, err := wg.Remove(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := lsns(v.Ops); !slices.Equal(got, want) {
		t.Errorf("removed node's Ops = %v, want %v", got, want)
	}
}

// TestLogicalBacklogStepValidated feeds the 8 000-op logical mix that
// restart rebuilds — one node grows to hold most operations, beside
// hundreds of small ones and about a thousand cycle collapses — through
// both policies with no installs, validating every 100 operations, then
// drains the graph first minimal node first.  Every removed node lists its
// operations in LSN order, and the removed operations are exactly the
// input.
func TestLogicalBacklogStepValidated(t *testing.T) {
	ops := logicalOps(t, 1, 8000)
	for _, policy := range []Policy{PolicyRW, PolicyW} {
		wg := New(policy)
		for i, o := range ops {
			if _, err := wg.AddOp(o); err != nil {
				t.Fatal(err)
			}
			if (i+1)%100 == 0 {
				if err := wg.Validate(); err != nil {
					t.Fatalf("%v, after %d ops: %v", policy, i+1, err)
				}
			}
		}
		biggest := 0
		for _, n := range wg.nodes {
			if !n.gone {
				biggest = max(biggest, len(n.ops))
			}
		}
		t.Logf("%v: %d nodes, largest holds %d ops, %d merges, %d collapses",
			policy, wg.Len(), biggest, wg.Merges(), wg.CycleCollapses())

		var removed []*op.Operation
		for steps := 0; wg.Len() > 0; steps++ {
			id, ok := wg.FirstMinimal()
			if !ok {
				t.Fatalf("%v: %d nodes but no minimal one", policy, wg.Len())
			}
			v, err := wg.Remove(id)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(v.Ops); i++ {
				if v.Ops[i].LSN <= v.Ops[i-1].LSN {
					t.Fatalf("%v: node %d's Ops are not LSN-ascending at %d", policy, id, i)
				}
			}
			removed = append(removed, v.Ops...)
			if steps%100 == 0 {
				if err := wg.Validate(); err != nil {
					t.Fatalf("%v, draining: %v", policy, err)
				}
			}
		}
		if len(wg.objects) != 0 || wg.OpCount() != 0 {
			t.Errorf("%v: drained graph keeps %d object records and %d ops", policy, len(wg.objects), wg.OpCount())
		}
		slices.SortFunc(removed, func(a, b *op.Operation) int { return int(a.LSN - b.LSN) })
		if len(removed) != len(ops) {
			t.Fatalf("%v: removed %d ops, added %d", policy, len(removed), len(ops))
		}
		for i := range ops {
			if removed[i] != ops[i] {
				t.Fatalf("%v: removed op %d is %v, want %v", policy, i, removed[i], ops[i])
			}
		}
	}
}
