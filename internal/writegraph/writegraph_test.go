package writegraph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"logicallog/internal/graph"
	"logicallog/internal/op"
)

// mkop crafts an operation with explicit read/write sets.  The write graph
// never executes operations, so FuncIDs here are placeholders.
func mkop(lsn op.SI, reads, writes []op.ObjectID) *op.Operation {
	o := op.NewLogical("test.fn", nil, reads, writes)
	o.LSN = lsn
	return o
}

func addAll(t *testing.T, wg *Graph, ops ...*op.Operation) {
	t.Helper()
	for _, o := range ops {
		if _, err := wg.AddOp(o); err != nil {
			t.Fatalf("AddOp(%s): %v", o, err)
		}
		if err := wg.Validate(); err != nil {
			t.Fatalf("after AddOp(%s): %v", o, err)
		}
	}
}

func varsOfOp(t *testing.T, wg *Graph, lsn op.SI) []op.ObjectID {
	t.Helper()
	id, ok := wg.NodeOfOp(lsn)
	if !ok {
		t.Fatalf("no node contains op %d", lsn)
	}
	return wg.Node(id).Vars
}

func TestPolicyString(t *testing.T) {
	if PolicyW.String() != "W" || PolicyRW.String() != "rW" || Policy(9).String() != "Policy(9)" {
		t.Error("Policy.String wrong")
	}
}

func TestAddOpRequiresLSN(t *testing.T) {
	wg := New(PolicyRW)
	if _, err := wg.AddOp(op.NewPhysicalWrite("X", nil)); err == nil {
		t.Error("AddOp must reject un-logged operations")
	}
}

// TestFigure1FlushOrder reproduces the flush dependency of Figure 1(a):
// after A (Y <- f(X,Y)) and B (X <- g(Y)), Y must flush before X.
func TestFigure1FlushOrder(t *testing.T) {
	for _, policy := range []Policy{PolicyW, PolicyRW} {
		wg := New(policy)
		a := mkop(1, []op.ObjectID{"X", "Y"}, []op.ObjectID{"Y"})
		b := mkop(2, []op.ObjectID{"Y"}, []op.ObjectID{"X"})
		addAll(t, wg, a, b)
		if wg.Len() != 2 {
			t.Fatalf("%v: Len = %d, want 2", policy, wg.Len())
		}
		na, _ := wg.NodeOfOp(1)
		nb, _ := wg.NodeOfOp(2)
		if !wg.HasEdge(na, nb) {
			t.Errorf("%v: missing flush-order edge Y-node -> X-node", policy)
		}
		mins := wg.Minimal()
		if len(mins) != 1 || mins[0] != na {
			t.Errorf("%v: minimal nodes = %v, want only A's node %d", policy, mins, na)
		}
	}
}

// TestSection4CycleExample reproduces the Section 4 example: (a) Y=f(X,Y);
// (b) X=g(Y); (c) Y=h(Y).  When (c) arrives, a cycle forms in rW between the
// nodes holding Y and X and is collapsed into a single node with a
// multi-object flush set {X,Y}.
func TestSection4CycleExample(t *testing.T) {
	wg := New(PolicyRW)
	a := mkop(1, []op.ObjectID{"X", "Y"}, []op.ObjectID{"Y"}) // application read form
	b := mkop(2, []op.ObjectID{"Y"}, []op.ObjectID{"X"})      // application write form
	c := mkop(3, []op.ObjectID{"Y"}, []op.ObjectID{"Y"})      // application execute form
	addAll(t, wg, a, b)
	if wg.Len() != 2 {
		t.Fatalf("before (c): Len = %d, want 2", wg.Len())
	}
	addAll(t, wg, c)
	if wg.Len() != 1 {
		t.Fatalf("after (c): Len = %d, want 1 (cycle collapsed)", wg.Len())
	}
	if wg.CycleCollapses() == 0 {
		t.Error("expected a recorded cycle collapse")
	}
	nv := wg.Nodes()[0]
	if !reflect.DeepEqual(nv.Vars, []op.ObjectID{"X", "Y"}) {
		t.Errorf("collapsed vars = %v, want [X Y]", nv.Vars)
	}
	if len(nv.Ops) != 3 {
		t.Errorf("collapsed ops = %d, want 3", len(nv.Ops))
	}
	// Conflict order within the node is preserved.
	for i := 1; i < len(nv.Ops); i++ {
		if nv.Ops[i].LSN <= nv.Ops[i-1].LSN {
			t.Error("ops not in conflict order after collapse")
		}
	}
}

// TestSection4IdentityWriteBreakup continues the cycle example: the cache
// manager issues W_IP(X), which removes X from the collapsed node's flush
// set, leaving two single-object nodes that flush Y then X.
func TestSection4IdentityWriteBreakup(t *testing.T) {
	wg := New(PolicyRW)
	addAll(t, wg,
		mkop(1, []op.ObjectID{"X", "Y"}, []op.ObjectID{"Y"}),
		mkop(2, []op.ObjectID{"Y"}, []op.ObjectID{"X"}),
		mkop(3, []op.ObjectID{"Y"}, []op.ObjectID{"Y"}),
	)
	big, _ := wg.NodeOfOp(1)
	plan, err := wg.IdentityBreakupPlan(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 1 {
		t.Fatalf("breakup plan = %v, want one object", plan)
	}
	// The plan prefers to keep the hottest object (Y, last written at LSN 3),
	// so it identity-writes X.
	if plan[0] != "X" {
		t.Errorf("plan = %v, want [X]", plan)
	}
	wip := op.NewIdentityWrite("X", []byte("xval"))
	wip.LSN = 4
	addAll(t, wg, wip)
	if wg.Len() != 2 {
		t.Fatalf("after W_IP: Len = %d, want 2", wg.Len())
	}
	bigView := wg.Node(big)
	if !reflect.DeepEqual(bigView.Vars, []op.ObjectID{"Y"}) {
		t.Errorf("big node vars = %v, want [Y]", bigView.Vars)
	}
	if !reflect.DeepEqual(bigView.Notx, []op.ObjectID{"X"}) {
		t.Errorf("big node Notx = %v, want [X]", bigView.Notx)
	}
	wipNode, _ := wg.NodeOfOp(4)
	if !wg.HasEdge(big, wipNode) {
		t.Error("missing write-write edge big -> W_IP node")
	}
	// Flush order: big (Y) first, then the identity-write node (X).
	if mins := wg.Minimal(); len(mins) != 1 || mins[0] != big {
		t.Errorf("Minimal = %v, want [%d]", wg.Minimal(), big)
	}
	// Install big by flushing only Y; all three logical ops install.
	view, err := wg.Remove(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Ops) != 3 || !reflect.DeepEqual(view.Vars, []op.ObjectID{"Y"}) {
		t.Errorf("installed view = ops %d vars %v", len(view.Ops), view.Vars)
	}
	if mins := wg.Minimal(); len(mins) != 1 || mins[0] != wipNode {
		t.Errorf("after install, Minimal = %v", mins)
	}
}

// TestFigure7Refinement reproduces Figure 7: A writes {X,Y}; B reads X;
// C blindly rewrites X.  Under W, X and Y stay in one atomic flush set.
// Under rW, C's blind write makes A's X unexposed: X leaves A's flush set,
// every node flushes a single object, and the inverse write-read edge forces
// B's node to install before A's.
func TestFigure7Refinement(t *testing.T) {
	opA := mkop(1, nil, []op.ObjectID{"X", "Y"})           // blind multi-object write
	opB := mkop(2, []op.ObjectID{"X"}, []op.ObjectID{"Z"}) // reads X written by A
	opC := mkop(3, nil, []op.ObjectID{"X"})                // blind rewrite of X

	w := New(PolicyW)
	addAll(t, w, opA.Clone(), opB.Clone(), opC.Clone())
	// W: A and C share writeset object X -> merged; vars = {X,Y}.
	na, _ := w.NodeOfOp(1)
	nc, _ := w.NodeOfOp(3)
	if na != nc {
		t.Error("W must merge A and C (writeset overlap)")
	}
	if got := w.Node(na).Vars; !reflect.DeepEqual(got, []op.ObjectID{"X", "Y"}) {
		t.Errorf("W vars = %v, want [X Y]", got)
	}

	rw := New(PolicyRW)
	addAll(t, rw, opA.Clone(), opB.Clone(), opC.Clone())
	if rw.Len() != 3 {
		t.Fatalf("rW Len = %d, want 3", rw.Len())
	}
	ra, _ := rw.NodeOfOp(1)
	rb, _ := rw.NodeOfOp(2)
	rc, _ := rw.NodeOfOp(3)
	aView := rw.Node(ra)
	if !reflect.DeepEqual(aView.Vars, []op.ObjectID{"Y"}) {
		t.Errorf("rW A vars = %v, want [Y] (X removed)", aView.Vars)
	}
	if !reflect.DeepEqual(aView.Notx, []op.ObjectID{"X"}) {
		t.Errorf("rW A Notx = %v, want [X]", aView.Notx)
	}
	if got := rw.Node(rc).Vars; !reflect.DeepEqual(got, []op.ObjectID{"X"}) {
		t.Errorf("rW C vars = %v, want [X]", got)
	}
	// Write-write edge A -> C: C ∈ must of A's ops.
	if !rw.HasEdge(ra, rc) {
		t.Error("rW missing write-write edge A -> C")
	}
	// Inverse write-read edge B -> A: B read Lastw(A,X), so B must install
	// before A flushes without X.
	if !rw.HasEdge(rb, ra) {
		t.Error("rW missing inverse write-read edge B -> A")
	}
	// Every rW flush set is a single object.
	if sizes := rw.FlushSetSizes(); !reflect.DeepEqual(sizes, []int{1, 1, 1}) {
		t.Errorf("rW flush set sizes = %v, want [1 1 1]", sizes)
	}
	// Install order: B (Z), then A (Y), then C (X).
	order := []graph.NodeID{}
	for rw.Len() > 0 {
		mins := rw.Minimal()
		if len(mins) == 0 {
			t.Fatal("no minimal node")
		}
		if _, err := rw.Remove(mins[0]); err != nil {
			t.Fatal(err)
		}
		order = append(order, mins[0])
	}
	if !reflect.DeepEqual(order, []graph.NodeID{rb, ra, rc}) {
		t.Errorf("install order = %v, want [B A C] = [%d %d %d]", order, rb, ra, rc)
	}
}

func TestRemoveRejectsNonMinimal(t *testing.T) {
	wg := New(PolicyRW)
	addAll(t, wg,
		mkop(1, []op.ObjectID{"X", "Y"}, []op.ObjectID{"Y"}),
		mkop(2, []op.ObjectID{"Y"}, []op.ObjectID{"X"}),
	)
	nb, _ := wg.NodeOfOp(2)
	if _, err := wg.Remove(nb); err == nil {
		t.Error("Remove of non-minimal node must fail")
	}
	if _, err := wg.Remove(999); err == nil {
		t.Error("Remove of unknown node must fail")
	}
}

func TestWVarsNeverShrink(t *testing.T) {
	// The paper: "For a node n of W, |vars(n)| is monotonically increasing".
	wg := New(PolicyW)
	addAll(t, wg,
		mkop(1, nil, []op.ObjectID{"X", "Y"}),
		mkop(2, nil, []op.ObjectID{"X"}), // blind rewrite: W keeps X in the set
	)
	if wg.Len() != 1 {
		t.Fatalf("Len = %d, want 1", wg.Len())
	}
	if got := wg.Nodes()[0].Vars; !reflect.DeepEqual(got, []op.ObjectID{"X", "Y"}) {
		t.Errorf("W vars = %v, want [X Y]", got)
	}
	if len(wg.Nodes()[0].Notx) != 0 {
		t.Error("W nodes must have empty Notx")
	}
}

func TestIdentityBreakupPlanSingleVar(t *testing.T) {
	wg := New(PolicyRW)
	addAll(t, wg, mkop(1, nil, []op.ObjectID{"X"}))
	id, _ := wg.NodeOfOp(1)
	plan, err := wg.IdentityBreakupPlan(id)
	if err != nil || plan != nil {
		t.Errorf("plan for single-var node = %v, %v", plan, err)
	}
	if _, err := wg.IdentityBreakupPlan(404); err == nil {
		t.Error("plan for unknown node must fail")
	}
}

func TestLastwTracksLatestLSN(t *testing.T) {
	wg := New(PolicyRW)
	addAll(t, wg,
		mkop(5, []op.ObjectID{"X"}, []op.ObjectID{"X"}),
		mkop(9, []op.ObjectID{"X"}, []op.ObjectID{"X"}),
	)
	id, _ := wg.NodeOfOp(5)
	if got := wg.Node(id).Lastw["X"]; got != 9 {
		t.Errorf("Lastw[X] = %d, want 9", got)
	}
}

func TestNodeAccessors(t *testing.T) {
	wg := New(PolicyRW)
	if wg.Node(1) != nil {
		t.Error("Node on empty graph")
	}
	if _, ok := wg.NodeOf("X"); ok {
		t.Error("NodeOf on empty graph")
	}
	if _, ok := wg.NodeOfOp(1); ok {
		t.Error("NodeOfOp on empty graph")
	}
	addAll(t, wg, mkop(1, nil, []op.ObjectID{"X"}))
	if id, ok := wg.NodeOf("X"); !ok || wg.Node(id) == nil {
		t.Error("NodeOf/Node roundtrip failed")
	}
	if wg.OpCount() != 1 {
		t.Errorf("OpCount = %d", wg.OpCount())
	}
}

// TestBatchAndIncrementalWAgree checks that the incremental W maintenance
// produces the same node partition (as multisets of op LSNs) and edges as
// the literal Figure 3 batch construction, on random histories of up to 200
// operations.
func TestBatchAndIncrementalWAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	objects := []op.ObjectID{"a", "b", "c", "d", "e", "f", "g", "h"}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(200)
		history := make([]*op.Operation, 0, n)
		for i := 0; i < n; i++ {
			history = append(history, randomSetOp(rng, objects, op.SI(i+1)))
		}
		batch, err := BuildW(history)
		if err != nil {
			t.Fatal(err)
		}
		inc := New(PolicyW)
		for _, o := range history {
			if _, err := inc.AddOp(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := inc.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := batch.Validate(); err != nil {
			t.Fatalf("trial %d (batch): %v", trial, err)
		}
		bp := partitionSignature(batch)
		ip := partitionSignature(inc)
		if !reflect.DeepEqual(bp, ip) {
			t.Fatalf("trial %d: partitions differ\nbatch: %v\n inc:  %v", trial, bp, ip)
		}
		if be, ie := edgeSignature(batch), edgeSignature(inc); !reflect.DeepEqual(be, ie) {
			t.Fatalf("trial %d (%d ops): edges differ\nbatch: %v\n inc:  %v", trial, n, be, ie)
		}
	}
}

// edgeSignature returns the graph's edges, each endpoint named by the first
// LSN of its node, sorted.
func edgeSignature(wg *Graph) [][2]op.SI {
	head := map[graph.NodeID]op.SI{}
	for _, nv := range wg.Nodes() {
		head[nv.ID] = nv.Ops[0].LSN
	}
	var out [][2]op.SI
	for _, nv := range wg.Nodes() {
		for _, s := range wg.Successors(nv.ID) {
			out = append(out, [2]op.SI{head[nv.ID], head[s]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// partitionSignature returns each node's sorted op LSNs, sorted by first LSN.
func partitionSignature(wg *Graph) [][]op.SI {
	var sig [][]op.SI
	for _, nv := range wg.Nodes() {
		var lsns []op.SI
		for _, o := range nv.Ops {
			lsns = append(lsns, o.LSN)
		}
		sig = append(sig, lsns)
	}
	// Ops within nodes are already in conflict order; sort nodes by head.
	for i := 0; i < len(sig); i++ {
		for j := i + 1; j < len(sig); j++ {
			if sig[j][0] < sig[i][0] {
				sig[i], sig[j] = sig[j], sig[i]
			}
		}
	}
	return sig
}

func randomSetOp(rng *rand.Rand, objects []op.ObjectID, lsn op.SI) *op.Operation {
	pick := func(n int) []op.ObjectID {
		var out []op.ObjectID
		for i := 0; i < n; i++ {
			out = append(out, objects[rng.Intn(len(objects))])
		}
		return op.Canonicalize(out)
	}
	writes := pick(1 + rng.Intn(2))
	if len(writes) == 0 {
		writes = []op.ObjectID{objects[0]}
	}
	reads := pick(rng.Intn(3))
	return mkop(lsn, reads, writes)
}

// TestRWPropertyInvariants drives random operation streams through rW with
// interleaved installs and checks structural invariants throughout, plus the
// headline refinement property: total flushed-object count under rW never
// exceeds that under W for the same history.
func TestRWPropertyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	objects := []op.ObjectID{"p", "q", "r", "s"}
	for trial := 0; trial < 40; trial++ {
		rw := New(PolicyRW)
		w := New(PolicyW)
		var lsn op.SI
		rwFlushed, wFlushed := 0, 0
		for step := 0; step < 30; step++ {
			if rng.Intn(4) == 0 {
				// Install a minimal node in each graph.
				if mins := rw.Minimal(); len(mins) > 0 {
					v, err := rw.Remove(mins[rng.Intn(len(mins))])
					if err != nil {
						t.Fatal(err)
					}
					rwFlushed += len(v.Vars)
				}
				if mins := w.Minimal(); len(mins) > 0 {
					v, err := w.Remove(mins[rng.Intn(len(mins))])
					if err != nil {
						t.Fatal(err)
					}
					wFlushed += len(v.Vars)
				}
				continue
			}
			lsn++
			o := randomSetOp(rng, objects, lsn)
			if _, err := rw.AddOp(o.Clone()); err != nil {
				t.Fatal(err)
			}
			if _, err := w.AddOp(o.Clone()); err != nil {
				t.Fatal(err)
			}
			if err := rw.Validate(); err != nil {
				t.Fatalf("trial %d step %d: rW: %v", trial, step, err)
			}
			if err := w.Validate(); err != nil {
				t.Fatalf("trial %d step %d: W: %v", trial, step, err)
			}
		}
		// Drain both graphs completely.
		for rw.Len() > 0 {
			mins := rw.Minimal()
			if len(mins) == 0 {
				t.Fatal("rW stuck: no minimal node")
			}
			v, _ := rw.Remove(mins[0])
			rwFlushed += len(v.Vars)
		}
		for w.Len() > 0 {
			mins := w.Minimal()
			if len(mins) == 0 {
				t.Fatal("W stuck: no minimal node")
			}
			v, _ := w.Remove(mins[0])
			wFlushed += len(v.Vars)
		}
		if rwFlushed > wFlushed {
			t.Errorf("trial %d: rW flushed %d objects > W's %d", trial, rwFlushed, wFlushed)
		}
	}
}

// TestEveryGraphDrains: any write graph must always offer a minimal node
// (acyclicity), so PurgeCache can always make progress.
func TestEveryGraphDrains(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	objects := []op.ObjectID{"x", "y", "z"}
	for _, policy := range []Policy{PolicyW, PolicyRW} {
		wg := New(policy)
		for i := 1; i <= 60; i++ {
			if _, err := wg.AddOp(randomSetOp(rng, objects, op.SI(i))); err != nil {
				t.Fatal(err)
			}
		}
		installed := 0
		for wg.Len() > 0 {
			mins := wg.Minimal()
			if len(mins) == 0 {
				t.Fatalf("%v: stuck with %d nodes", policy, wg.Len())
			}
			v, err := wg.Remove(mins[0])
			if err != nil {
				t.Fatal(err)
			}
			installed += len(v.Ops)
		}
		if installed != 60 {
			t.Errorf("%v: installed %d ops, want 60", policy, installed)
		}
	}
}

// TestValidateCatchesStaleIndexes corrupts each maintained index and the
// maintained order in turn; Validate must notice every one.
func TestValidateCatchesStaleIndexes(t *testing.T) {
	build := func() *Graph {
		wg := New(PolicyRW)
		addAll(t, wg,
			mkop(1, nil, []op.ObjectID{"X", "Y"}),
			mkop(2, []op.ObjectID{"X"}, []op.ObjectID{"Z"}),
			mkop(3, nil, []op.ObjectID{"X"}),
			mkop(4, []op.ObjectID{"X"}, []op.ObjectID{"W"}),
		)
		return wg
	}
	ra, _ := build().NodeOfOp(1)
	rb, _ := build().NodeOfOp(2)
	for _, c := range []struct {
		name    string
		corrupt func(wg *Graph)
	}{
		{"readers", func(wg *Graph) { wg.objects["X"].readers = without(wg.objects["X"].readers, wg.node(rb)) }},
		{"lastReaders", func(wg *Graph) { wg.objects["X"].lastReaders = nil }},
		{"lastWriter", func(wg *Graph) { wg.objects["X"].lastWriter = wg.node(ra) }},
		{"holder", func(wg *Graph) { wg.objects["Y"].holder = nil }},
		{"emptyRecord", func(wg *Graph) { wg.objects["Q"] = &object{} }},
		{"staleRecord", func(wg *Graph) { wg.objects["Y"] = &object{holder: wg.node(ra), lastWriter: wg.node(ra)} }},
		{"entryFlags", func(wg *Graph) { wg.node(ra).find("Y").flags &^= inWrites }},
		{"entryLastw", func(wg *Graph) { wg.node(ra).find("Y").lastw++ }},
		{"entryOrder", func(wg *Graph) { n := wg.node(ra); n.objs[0], n.objs[1] = n.objs[1], n.objs[0] }},
		{"opOrder", func(wg *Graph) { n := wg.node(ra); n.ops = append(n.ops, n.ops[0]); wg.opCount++ }},
		{"minimalMissing", func(wg *Graph) { wg.minimal = wg.minimal[1:] }},
		{"minimalExtra", func(wg *Graph) { wg.minimal = with(wg.minimal, wg.node(ra)) }},
		{"predMissing", func(wg *Graph) { n := wg.node(ra); n.pred = n.pred[:0] }},
		{"succMissing", func(wg *Graph) { n := wg.node(rb); n.succ = n.succ[:0] }},
		{"cycle", func(wg *Graph) { wg.link(wg.node(ra), wg.node(rb)) }},
		{"opCount", func(wg *Graph) { wg.opCount++ }},
		{"rank", func(wg *Graph) { wg.node(ra).rank, wg.node(rb).rank = wg.node(rb).rank, wg.node(ra).rank }},
		{"duplicateRank", func(wg *Graph) { wg.node(ra).rank = wg.node(rb).rank }},
		{"nonIncreasingRanks", func(wg *Graph) { wg.last.rank = wg.last.prev.rank }},
		{"backLink", func(wg *Graph) { wg.last.prev = wg.first }},
		{"missingFromList", func(wg *Graph) {
			n := wg.first.next
			n.prev.next, n.next.prev = n.next, n.prev
		}},
		{"lastNotEnd", func(wg *Graph) { wg.last = wg.last.prev }},
	} {
		wg := build()
		c.corrupt(wg)
		if err := wg.Validate(); err == nil {
			t.Errorf("Validate missed corrupted %s", c.name)
		} else {
			t.Logf("%s: %v", c.name, err)
		}
	}
}
