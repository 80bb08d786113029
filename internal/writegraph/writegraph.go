// Package writegraph implements the paper's write graphs: the write graph W
// of Lomet & Tuttle [8] (Figure 3) and this paper's refined write graph rW
// (Figure 6, procedure addop_rW).
//
// The cache manager's central problem is that installation-graph nodes are
// operations but the cache manager writes objects.  A write graph groups
// uninstalled operations into nodes; the objects vars(n) of a node must be
// flushed atomically to install ops(n), and nodes must be flushed in write
// graph (edge) order.
//
// The two graphs differ in one fundamental way.  In W, vars(n) = Writes(n)
// and |vars(n)| grows monotonically until flushed.  In rW, a subsequent
// blind update of an object X can make the value of X written by node n
// "unexposed", letting the cache manager remove X from vars(n): n's
// operations can then be installed without flushing X at all.  Extra rW
// edges (write-write and inverse write-read) preserve correctness.
package writegraph

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"logicallog/internal/graph"
	"logicallog/internal/op"
)

// Policy selects which write graph is maintained.
type Policy uint8

const (
	// PolicyW maintains the write graph W of [8]: nodes merge on writeset
	// overlap and flush sets never shrink.
	PolicyW Policy = iota
	// PolicyRW maintains the refined write graph rW of this paper:
	// unexposed objects are removed from other nodes' flush sets.
	PolicyRW
)

func (p Policy) String() string {
	switch p {
	case PolicyW:
		return "W"
	case PolicyRW:
		return "rW"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// node is the internal node state.  Table 1 of the paper:
//
//	ops(n)     operations associated with n (conflict order)
//	vars(n)    subset of Writes(n) flushed to install ops(n)
//	Reads(n)   union of readsets
//	Writes(n)  union of writesets
//	Notx(n)    Writes(n) − vars(n): the unexposed objects of n
//	Lastw(n,X) last value (here: LSN of last write) of X written by ops(n)
//
// prev and next link n into the list that holds the nodes in the graph's
// maintained topological order; rank increases along that list, with gaps.
type node struct {
	id         graph.NodeID
	rank       int64
	prev, next *node
	// mark is the epoch of the last order repair whose set B held n.
	mark   uint64
	ops    []*op.Operation
	vars   map[op.ObjectID]struct{}
	reads  map[op.ObjectID]struct{}
	writes map[op.ObjectID]struct{}
	lastw  map[op.ObjectID]op.SI
}

func (n *node) notx() []op.ObjectID {
	var out []op.ObjectID
	//lint:ignore replaydeterminism membership filter is order-independent; canonicalized below
	for x := range n.writes {
		if _, ok := n.vars[x]; !ok {
			out = append(out, x)
		}
	}
	return op.Canonicalize(out)
}

// Graph is a write graph under a policy.  It is maintained incrementally:
// AddOp corresponds to the arrival of a logged operation at the cache
// manager, Remove to PurgeCache installing a minimal node.
//
// Both do work proportional to what the operation touches — the nodes
// indexed under the objects it reads or writes, and the nodes its new edges
// move in the maintained topological order — never to the size of the
// uninstalled backlog.
//
// Graph is not safe for concurrent use; the cache manager serializes access.
type Graph struct {
	policy Policy
	g      *graph.Digraph
	nodes  map[graph.NodeID]*node
	nextID graph.NodeID
	// first and last are the ends of the order list.  Ranks leave gaps
	// between neighbours, so settle moves nodes without renumbering the
	// rest; relabels counts the times a gap ran out and the whole list was
	// renumbered.
	first, last *node
	relabels    int
	// epoch numbers settle's searches; a node is in the current one's set
	// B when its mark equals it.
	epoch uint64
	// opCount is the number of operations across all nodes.
	opCount int

	// byVar maps an object to the unique node holding it in vars.  The
	// paper: "each X is a member of only one vars(p) for all p".
	byVar map[op.ObjectID]graph.NodeID
	// lastWriter maps an object to the node containing its latest
	// (uninstalled) writer, used to resolve Lastw(p,X) readers.
	lastWriter map[op.ObjectID]graph.NodeID
	// readersOfLast maps an object X with a latest writer to the nodes
	// containing operations that read the value that writer wrote (reset
	// whenever X is rewritten).  These nodes get inverse write-read edges
	// q -> p when X becomes unexposed in p.
	readersOfLast map[op.ObjectID]graph.IDSet
	// readersOf maps an object to the nodes whose Reads contain it: the
	// read-write predecessors of any node that writes it.
	readersOf map[op.ObjectID]graph.IDSet

	// disordered lists the edges the current AddOp inserted against the
	// maintained order; settle repairs the order once they are all in.
	disordered [][2]graph.NodeID
	// visits counts the nodes and edges AddOp examines: indexed readers,
	// inserted edges and the order repair.  Tests use it to check the work
	// per operation.
	visits int

	// stats
	merges        int
	cycleCollapse int
}

// New returns an empty write graph under the given policy.
func New(policy Policy) *Graph {
	return &Graph{
		policy:        policy,
		g:             graph.New(),
		nodes:         make(map[graph.NodeID]*node),
		nextID:        1,
		byVar:         make(map[op.ObjectID]graph.NodeID),
		lastWriter:    make(map[op.ObjectID]graph.NodeID),
		readersOfLast: make(map[op.ObjectID]graph.IDSet),
		readersOf:     make(map[op.ObjectID]graph.IDSet),
	}
}

// Policy returns the graph's policy.
func (wg *Graph) Policy() Policy { return wg.policy }

// Len returns the number of nodes.
func (wg *Graph) Len() int { return len(wg.nodes) }

// OpCount returns the number of uninstalled operations across all nodes.
func (wg *Graph) OpCount() int { return wg.opCount }

// Merges returns how many node merges have occurred (exp/writeset overlap).
func (wg *Graph) Merges() int { return wg.merges }

// CycleCollapses returns how many SCC collapses were needed.
func (wg *Graph) CycleCollapses() int { return wg.cycleCollapse }

// AddOp assigns a freshly logged operation to a write-graph node, merging
// and re-wiring per the policy, and returns the node id the operation ended
// up in (post any cycle collapse).  The operation must have an LSN greater
// than every operation already present (conflict order).
func (wg *Graph) AddOp(o *op.Operation) (graph.NodeID, error) {
	if o.LSN == op.NilSI {
		return 0, fmt.Errorf("writegraph: operation %s has no LSN", o)
	}
	switch wg.policy {
	case PolicyW:
		return wg.addOpW(o)
	case PolicyRW:
		return wg.addOpRW(o)
	}
	return 0, fmt.Errorf("writegraph: unknown policy %v", wg.policy)
}

// addOpW implements the incremental equivalent of Figure 3's first collapse:
// nodes whose writesets intersect merge (transitive closure of writeset
// overlap), vars(n) = Writes(n), and installation read-write edges order
// nodes.  Cycles collapse (second collapse of Figure 3).
func (wg *Graph) addOpW(o *op.Operation) (graph.NodeID, error) {
	// Record read-write edges first: nodes that previously read an object
	// this operation writes must be installed before it.
	preds := wg.readWritePredecessors(o)

	// Merge every node whose Writes overlaps writeset(o).  Under W, vars(n)
	// = Writes(n) and each object is in one vars set, so byVar names it.
	var mergeIDs []graph.NodeID
	seen := map[graph.NodeID]struct{}{}
	for _, x := range o.WriteSet {
		if id, ok := wg.byVar[x]; ok {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				mergeIDs = append(mergeIDs, id)
			}
		}
	}
	m := wg.mergeInto(mergeIDs)
	wg.attachOp(m, o, o.WriteSet /* vars gets full writeset */)
	wg.addEdgesFrom(preds, m.id)
	wg.trackReadsWrites(m, o)
	return wg.settle(m.id), nil
}

// addEdgesFrom adds edges p -> to for every p that still exists (a
// predecessor recorded before a merge may have been absorbed).
func (wg *Graph) addEdgesFrom(preds []graph.NodeID, to graph.NodeID) {
	for _, p := range preds {
		if p == to {
			continue
		}
		if _, ok := wg.nodes[p]; !ok {
			continue
		}
		wg.addEdge(p, to)
	}
}

// addEdge inserts u -> v, listing it for settle when it runs against the
// maintained order.
func (wg *Graph) addEdge(u, v graph.NodeID) {
	wg.visits++
	wg.g.AddEdge(u, v)
	if wg.nodes[u].rank > wg.nodes[v].rank {
		wg.disordered = append(wg.disordered, [2]graph.NodeID{u, v})
	}
}

// addOpRW implements procedure addop_rW of Figure 6.
func (wg *Graph) addOpRW(o *op.Operation) (graph.NodeID, error) {
	exp := o.Exp()
	notexp := o.NotExp()

	// Read-write edges: nodes p with Reads(p) ∩ writeset(o) ≠ ∅ precede m.
	preds := wg.readWritePredecessors(o)

	// Record, before any merging re-points byVar, which node currently
	// holds each not-exposed object in its vars.
	prevHolder := make(map[op.ObjectID]graph.NodeID, len(notexp))
	for _, x := range notexp {
		if id, ok := wg.byVar[x]; ok {
			prevHolder[x] = id
		}
	}

	// Merge nodes n with vars(n) ∩ exp(o) ≠ ∅ into m.
	var mergeIDs []graph.NodeID
	seen := map[graph.NodeID]struct{}{}
	for _, x := range exp {
		if id, ok := wg.byVar[x]; ok {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				mergeIDs = append(mergeIDs, id)
			}
		}
	}
	m := wg.mergeInto(mergeIDs)
	wg.attachOp(m, o, o.WriteSet)
	wg.addEdgesFrom(preds, m.id)

	// For each p ≠ m with vars(p) ∩ notexp(o) ≠ ∅: remove the not-exposed
	// objects from vars(p); add write-write edge p -> m; and add inverse
	// write-read edges q -> p for nodes q reading Lastw(p,X).
	for _, x := range notexp {
		pid, ok := prevHolder[x]
		if !ok || pid == m.id {
			continue
		}
		p, alive := wg.nodes[pid]
		if !alive {
			// The holder was absorbed into m by the exp merge; the object
			// legitimately stays in vars(m).
			continue
		}
		delete(p.vars, x)
		// attachOp already re-pointed byVar[x] to m.
		wg.addEdge(pid, m.id) // write-write: o ∈ must(op) for op ∈ ops(p)
		// Inverse write-read edges: readers of the value p last wrote to x
		// must install before p so that x is truly unexposed when p's vars
		// are flushed without x.
		if wg.lastWriter[x] == pid {
			readers := wg.readersOfLast[x]
			wg.visits += len(readers)
			for _, qid := range readers {
				if qid != pid && wg.g.HasNode(qid) {
					wg.addEdge(qid, pid)
				}
			}
		}
	}

	wg.trackReadsWrites(m, o)
	return wg.settle(m.id), nil
}

// readWritePredecessors returns ids of nodes containing operations that read
// any object o writes — installation read-write edges point from them to
// o's node.  The result is sorted: downstream consumers only build edge
// sets today, but the predecessor list must not leak map-iteration order
// into anything replay-visible.
func (wg *Graph) readWritePredecessors(o *op.Operation) []graph.NodeID {
	var out []graph.NodeID
	for _, x := range o.WriteSet {
		wg.visits += len(wg.readersOf[x])
		out = append(out, wg.readersOf[x]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return slices.Compact(out)
}

// newNode adds an empty node at the end of the maintained order.
func (wg *Graph) newNode() *node {
	nd := &node{
		id:     wg.nextID,
		vars:   make(map[op.ObjectID]struct{}),
		reads:  make(map[op.ObjectID]struct{}),
		writes: make(map[op.ObjectID]struct{}),
		lastw:  make(map[op.ObjectID]op.SI),
	}
	wg.nextID++
	wg.place(wg.last, nd)
	wg.nodes[nd.id] = nd
	wg.g.AddNode(nd.id)
	return nd
}

// rankGap is the rank distance between neighbours after a relabel and
// between the last node and one appended after it: room for 32 halvings of
// one gap by settle before the list has to be relabelled.
const rankGap = int64(1) << 32

// place links run, in order, into the order list right after the node
// after (at the front when after is nil) and ranks it evenly inside the gap
// there.  Ranks stay positive.  When the gap is too small, or past the last
// node a rank would overflow, the whole list is relabelled.
func (wg *Graph) place(after *node, run ...*node) {
	next, lower, upper := wg.first, int64(0), int64(math.MaxInt64)
	if after != nil {
		next, lower = after.next, after.rank
	}
	if next != nil {
		upper = next.rank
	}
	for _, n := range run {
		n.prev, n.next = after, next
		if after == nil {
			wg.first = n
		} else {
			after.next = n
		}
		after = n
	}
	if next == nil {
		wg.last = after
	} else {
		next.prev = after
	}
	step := (upper - lower) / int64(len(run)+1)
	if next == nil {
		step = min(step, rankGap)
	}
	if step < 1 {
		wg.relabel()
		return
	}
	for i, n := range run {
		n.rank = lower + int64(i+1)*step
	}
}

// relabel renumbers the whole order list, rankGap apart (closer if the list
// is too long for that to fit an int64).
func (wg *Graph) relabel() {
	wg.relabels++
	step := min(rankGap, math.MaxInt64/int64(len(wg.nodes)+2))
	r := int64(0)
	for n := wg.first; n != nil; n = n.next {
		r += step
		n.rank = r
	}
}

// unlink takes n out of the order list.
func (wg *Graph) unlink(n *node) {
	if n.prev == nil {
		wg.first = n.next
	} else {
		n.prev.next = n.next
	}
	if n.next == nil {
		wg.last = n.prev
	} else {
		n.next.prev = n.prev
	}
	n.prev, n.next = nil, nil
}

// mergeInto merges the given nodes into one (creating a fresh node if the
// list is empty) and returns the survivor.  Edges are re-pointed; self-edges
// are dropped.
func (wg *Graph) mergeInto(ids []graph.NodeID) *node {
	if len(ids) == 0 {
		return wg.newNode()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	survivor := wg.nodes[ids[0]]
	for _, id := range ids[1:] {
		wg.absorb(survivor, id)
		wg.merges++
	}
	return survivor
}

// absorb merges node id into survivor and deletes it.  Collapsing two nodes
// joins every path that ran between them; the re-pointed edges that run
// against the maintained order are listed for settle like any new edge.
func (wg *Graph) absorb(survivor *node, id graph.NodeID) {
	victim := wg.nodes[id]
	survivor.ops = mergeOps(survivor.ops, victim.ops)
	//lint:ignore replaydeterminism set union; resulting maps identical in any order
	for x := range victim.vars {
		survivor.vars[x] = struct{}{}
		wg.byVar[x] = survivor.id
	}
	//lint:ignore replaydeterminism set union; resulting maps identical in any order
	for x := range victim.reads {
		survivor.reads[x] = struct{}{}
		// Re-point the reader registries: both only ever hold nodes whose
		// Reads contain the object.
		dropID(wg.readersOf, x, id)
		addID(wg.readersOf, x, survivor.id)
		if wg.readersOfLast[x].Has(id) {
			dropID(wg.readersOfLast, x, id)
			addID(wg.readersOfLast, x, survivor.id)
		}
	}
	//lint:ignore replaydeterminism set union; resulting maps identical in any order
	for x := range victim.writes {
		survivor.writes[x] = struct{}{}
		if wg.lastWriter[x] == id {
			wg.lastWriter[x] = survivor.id
		}
	}
	//lint:ignore replaydeterminism commutative max-fold per key
	for x, l := range victim.lastw {
		if l > survivor.lastw[x] {
			survivor.lastw[x] = l
		}
	}
	// Re-point edges.
	for _, s := range wg.g.Succ(id) {
		if s != survivor.id {
			wg.addEdge(survivor.id, s)
		}
	}
	for _, p := range wg.g.Pred(id) {
		if p != survivor.id {
			wg.addEdge(p, survivor.id)
		}
	}
	wg.g.RemoveNode(id)
	wg.unlink(victim)
	delete(wg.nodes, id)
}

// attachOp appends o to nd and adds varsToAdd into vars(nd), re-pointing the
// byVar registry.
func (wg *Graph) attachOp(nd *node, o *op.Operation, varsToAdd []op.ObjectID) {
	nd.ops = append(nd.ops, o)
	wg.opCount++
	for _, x := range varsToAdd {
		nd.vars[x] = struct{}{}
		// Under rW an object may currently sit in another node's vars only
		// if x ∈ exp(o) — but then that node was merged into nd.  Under W
		// the overlap merge guarantees the same.  So this re-point is safe.
		wg.byVar[x] = nd.id
	}
	for _, x := range o.ReadSet {
		nd.reads[x] = struct{}{}
		addID(wg.readersOf, x, nd.id)
	}
	for _, x := range o.WriteSet {
		nd.writes[x] = struct{}{}
		nd.lastw[x] = o.LSN
	}
}

// trackReadsWrites updates the Lastw reader registries for o, which now
// lives in nd.  Reads happen before writes within an operation.  A read of
// an object with no uninstalled writer is not recorded: inverse write-read
// edges only ever point into a node that last wrote the object.
func (wg *Graph) trackReadsWrites(nd *node, o *op.Operation) {
	for _, x := range o.ReadSet {
		if _, ok := wg.lastWriter[x]; ok {
			addID(wg.readersOfLast, x, nd.id)
		}
	}
	for _, x := range o.WriteSet {
		wg.lastWriter[x] = nd.id
		delete(wg.readersOfLast, x)
	}
}

// settle restores the maintained topological order once all of an AddOp's
// edges are in, collapsing every strongly connected component they closed
// (the second collapse of Figure 3), and returns the id of the node that
// now holds the operations of start.  It waits for the end of the AddOp
// because addop_rW reads node membership and Lastw writers between its edge
// insertions; collapsing mid-call would change what it reads.
//
// The repair searches backward only.  Let lo be the lowest rank among the
// heads of the edges that run against the order, and B the nodes that reach
// one of their tails through nodes ranked at least lo.  Every other edge
// agrees with the order, so on any cycle the lowest-ranked node is entered
// by a disordered edge: it is a head, every node of the cycle ranks at
// least lo and reaches that edge's tail along the cycle, and the cycle lies
// in B.  Placing B, in a topological order of its own, just before the node
// that ranked lo satisfies every edge: one entering B from outside starts
// below lo (a node ranked lo or more with an edge into B is in B), and one
// leaving B ends at or above lo (at a head, or above the node it leaves).
// So no forward search is needed, and nothing outside B moves.  When no
// head is in B, no disordered edge lies inside B and its rank order is
// already topological.  Otherwise B's strongly connected components, taken
// in reverse of the order Tarjan emits them, give that order; the
// nontrivial ones — exactly the components a global SCC pass would
// collapse — collapse into their minimum id.
func (wg *Graph) settle(start graph.NodeID) graph.NodeID {
	var low *node
	var heads, tails []*node
	for _, e := range wg.disordered {
		u, v := wg.nodes[e[0]], wg.nodes[e[1]]
		if u == nil || v == nil || u.rank < v.rank {
			// An endpoint was absorbed later in this AddOp; the edge that
			// replaced it was listed on its own.
			continue
		}
		if low == nil || v.rank < low.rank {
			low = v
		}
		heads = append(heads, v)
		tails = append(tails, u)
	}
	wg.disordered = wg.disordered[:0]
	if low == nil {
		return start
	}
	// Everything ranked below lo stays put, low's predecessor included.
	after := low.prev
	moved := wg.ancestors(tails, low.rank)
	inB := func(n *node) bool { return n.mark == wg.epoch }

	if !slices.ContainsFunc(heads, inB) {
		slices.SortFunc(moved, func(a, b *node) int { return cmp.Compare(a.rank, b.rank) })
	} else {
		roots := make([]graph.NodeID, len(moved))
		for i, n := range moved {
			roots[i] = n.id
		}
		wg.visits += len(roots)
		comps := wg.g.SCCWithin(roots, func(id graph.NodeID) bool { return inB(wg.nodes[id]) })
		moved = moved[:0]
		for i := len(comps) - 1; i >= 0; i-- {
			comp := comps[i]
			survivor := wg.nodes[comp[0]]
			if len(comp) > 1 {
				wg.cycleCollapse++
				for _, id := range comp[1:] {
					if id == start {
						start = survivor.id
					}
					wg.absorb(survivor, id)
				}
			}
			moved = append(moved, survivor)
		}
		// absorb re-pointed edges within B or across its boundary, which
		// the placement below satisfies like every other such edge.
		wg.disordered = wg.disordered[:0]
	}
	for _, n := range moved {
		wg.unlink(n)
	}
	wg.place(after, moved...)
	return start
}

// ancestors returns, in visit order, the nodes that reach one of tails
// through nodes ranked at least lo (the tails must be), and stamps each with
// a fresh epoch.  It takes over tails as its stack.
func (wg *Graph) ancestors(tails []*node, lo int64) []*node {
	wg.epoch++
	var order []*node
	stack := tails
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.mark == wg.epoch {
			continue
		}
		n.mark = wg.epoch
		order = append(order, n)
		preds := wg.g.PredSet(n.id)
		wg.visits += 1 + len(preds)
		for _, id := range preds {
			if p := wg.nodes[id]; p.rank >= lo && p.mark != wg.epoch {
				stack = append(stack, p)
			}
		}
	}
	return order
}

// ---------------------------------------------------------------------------
// Inspection.
// ---------------------------------------------------------------------------

// NodeView is a read-only snapshot of a write-graph node.
type NodeView struct {
	ID graph.NodeID
	// Ops are the node's uninstalled operations in conflict order.
	Ops []*op.Operation
	// Vars is the atomic flush set vars(n), canonical order.
	Vars []op.ObjectID
	// Notx is Writes(n) − vars(n): objects installed without flushing.
	Notx []op.ObjectID
	// Reads and Writes are the unions over Ops.
	Reads, Writes []op.ObjectID
	// Lastw maps each written object to the LSN of its last write in Ops.
	Lastw map[op.ObjectID]op.SI
}

// Node returns a snapshot of the node with the given id, or nil.
func (wg *Graph) Node(id graph.NodeID) *NodeView {
	nd, ok := wg.nodes[id]
	if !ok {
		return nil
	}
	return wg.view(nd)
}

// view snapshots nd; the snapshot shares no memory with the graph.
func (wg *Graph) view(nd *node) *NodeView {
	v := wg.detach(nd)
	v.Ops = slices.Clone(nd.ops)
	v.Lastw = maps.Clone(nd.lastw)
	return v
}

// detach is view for a node leaving the graph: nothing will change nd
// again, so the snapshot takes over its operation list and Lastw map
// instead of copying them.
func (wg *Graph) detach(nd *node) *NodeView {
	return &NodeView{
		ID:     nd.id,
		Ops:    nd.ops,
		Vars:   setToSlice(nd.vars),
		Notx:   nd.notx(),
		Reads:  setToSlice(nd.reads),
		Writes: setToSlice(nd.writes),
		Lastw:  nd.lastw,
	}
}

// Nodes returns snapshots of all nodes, ordered by id.
func (wg *Graph) Nodes() []*NodeView {
	ids := make([]graph.NodeID, 0, len(wg.nodes))
	//lint:ignore replaydeterminism key collection is order-independent; sorted below
	for id := range wg.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*NodeView, len(ids))
	for i, id := range ids {
		out[i] = wg.view(wg.nodes[id])
	}
	return out
}

// Minimal returns ids of nodes with no predecessors — the flush candidates
// of PurgeCache.
func (wg *Graph) Minimal() []graph.NodeID { return wg.g.Minimal() }

// FirstMinimal returns the smallest-id node with no predecessors — the
// flush candidate PurgeCache chooses — without scanning the graph.
func (wg *Graph) FirstMinimal() (graph.NodeID, bool) { return wg.g.FirstMinimal() }

// FlushSet returns what installing node id flushes, vars(n), and what it
// installs without flushing, Notx(n), both in canonical order; ok is false
// when there is no such node.  It is the part of Node the installer needs
// before it commits to an install.
func (wg *Graph) FlushSet(id graph.NodeID) (vars, notx []op.ObjectID, ok bool) {
	nd, ok := wg.nodes[id]
	if !ok {
		return nil, nil, false
	}
	return setToSlice(nd.vars), nd.notx(), true
}

// IsMinimal reports whether node id exists and has no predecessors.
func (wg *Graph) IsMinimal(id graph.NodeID) bool {
	_, ok := wg.nodes[id]
	return ok && wg.g.InDegree(id) == 0
}

// NodeOf returns the id of the node holding x in its vars, if any.
func (wg *Graph) NodeOf(x op.ObjectID) (graph.NodeID, bool) {
	id, ok := wg.byVar[x]
	return id, ok
}

// NodeOfOp returns the id of the node containing the operation with the
// given LSN, if any.
func (wg *Graph) NodeOfOp(lsn op.SI) (graph.NodeID, bool) {
	//lint:ignore replaydeterminism an LSN lives in exactly one node, so at most one iteration matches
	for id, nd := range wg.nodes {
		for _, o := range nd.ops {
			if o.LSN == lsn {
				return id, true
			}
		}
	}
	return 0, false
}

// HasEdge reports whether the write graph orders u before v.
func (wg *Graph) HasEdge(u, v graph.NodeID) bool { return wg.g.HasEdge(u, v) }

// Remove installs node id: it must be minimal (no predecessors).  It returns
// a snapshot of the removed node (whose Vars the caller must have flushed
// atomically and whose Notx objects are installed without flushing) and
// detaches it from the graph; the snapshot owns the node's operation list
// and Lastw map.  Per the paper, removal never creates cycles.
func (wg *Graph) Remove(id graph.NodeID) (*NodeView, error) {
	nd, ok := wg.nodes[id]
	if !ok {
		return nil, fmt.Errorf("writegraph: no node %d", id)
	}
	if wg.g.InDegree(id) != 0 {
		return nil, fmt.Errorf("writegraph: node %d is not minimal (in-degree %d)", id, wg.g.InDegree(id))
	}
	v := wg.detach(nd)
	for _, x := range v.Vars {
		if wg.byVar[x] == id {
			delete(wg.byVar, x)
		}
	}
	for _, x := range v.Writes {
		if wg.lastWriter[x] == id {
			delete(wg.lastWriter, x)
			delete(wg.readersOfLast, x)
		}
	}
	for _, x := range v.Reads {
		dropID(wg.readersOf, x, id)
		dropID(wg.readersOfLast, x, id)
	}
	wg.opCount -= len(nd.ops)
	wg.g.RemoveNode(id)
	wg.unlink(nd)
	delete(wg.nodes, id)
	return v, nil
}

// IdentityBreakupPlan returns, for node id, the objects the cache manager
// should identity-write (W_IP) so that the node's atomic flush set shrinks
// to a single object (Section 4).  It returns all but one of vars(n),
// preferring to retain the object with the highest last-write LSN (a heuristic:
// hottest object stays, and at least one object need not be logged).
// The caller logs identity writes for the returned objects and feeds them
// back through AddOp; under rW each identity write removes its object from
// vars(n).
func (wg *Graph) IdentityBreakupPlan(id graph.NodeID) ([]op.ObjectID, error) {
	nd, ok := wg.nodes[id]
	if !ok {
		return nil, fmt.Errorf("writegraph: no node %d", id)
	}
	if len(nd.vars) <= 1 {
		return nil, nil
	}
	vars := setToSlice(nd.vars)
	// Retain the var with the max Lastw; identity-write the rest.
	keep := vars[0]
	for _, x := range vars[1:] {
		if nd.lastw[x] > nd.lastw[keep] {
			keep = x
		}
	}
	var plan []op.ObjectID
	for _, x := range vars {
		if x != keep {
			plan = append(plan, x)
		}
	}
	return plan, nil
}

// Validate checks the graph's structural invariants: the underlying digraph
// is consistent and acyclic, each object is in at most one vars set, byVar
// agrees with node contents, and under W vars == Writes for every node.  It
// also rebuilds every per-object index (readers, latest writers and their
// readers) and the operation count from node contents and compares them
// with the maintained ones, and checks the maintained order (validateOrder).
func (wg *Graph) Validate() error {
	if err := wg.g.Validate(); err != nil {
		return err
	}
	if wg.g.HasCycle() {
		return fmt.Errorf("writegraph: graph has a cycle after collapse")
	}
	if wg.g.Len() != len(wg.nodes) {
		return fmt.Errorf("writegraph: digraph has %d nodes, write graph %d", wg.g.Len(), len(wg.nodes))
	}
	if err := wg.validateOrder(); err != nil {
		return err
	}
	if err := wg.validateIndexes(); err != nil {
		return err
	}
	seen := map[op.ObjectID]graph.NodeID{}
	//lint:ignore replaydeterminism invariant scan; any violation fails, which one is reported is immaterial
	for id, nd := range wg.nodes {
		if !wg.g.HasNode(id) {
			return fmt.Errorf("writegraph: node %d missing from digraph", id)
		}
		//lint:ignore replaydeterminism invariant scan; any violation fails, which one is reported is immaterial
		for x := range nd.vars {
			if prev, dup := seen[x]; dup {
				return fmt.Errorf("writegraph: object %q in vars of nodes %d and %d", x, prev, id)
			}
			seen[x] = id
			if wg.byVar[x] != id {
				return fmt.Errorf("writegraph: byVar[%q]=%d but object in node %d", x, wg.byVar[x], id)
			}
			if _, ok := nd.writes[x]; !ok {
				return fmt.Errorf("writegraph: node %d has var %q not in Writes", id, x)
			}
		}
		if wg.policy == PolicyW && len(nd.vars) != len(nd.writes) {
			return fmt.Errorf("writegraph: W node %d has vars ⊂ Writes (%d < %d)", id, len(nd.vars), len(nd.writes))
		}
	}
	//lint:ignore replaydeterminism invariant scan; any violation fails, which one is reported is immaterial
	for x, id := range wg.byVar {
		nd, ok := wg.nodes[id]
		if !ok {
			return fmt.Errorf("writegraph: byVar[%q] -> missing node %d", x, id)
		}
		if _, ok := nd.vars[x]; !ok {
			return fmt.Errorf("writegraph: byVar[%q] -> node %d lacking the var", x, id)
		}
	}
	return nil
}

// validateOrder checks the order list: its links agree both ways, first and
// last are its ends, it holds every node exactly once, ranks increase
// strictly along it, and every edge points forward.
func (wg *Graph) validateOrder() error {
	if wg.first != nil && wg.first.prev != nil {
		return fmt.Errorf("writegraph: order list's first node %d has a predecessor", wg.first.id)
	}
	var prev *node
	count := 0
	for n := wg.first; n != nil; n = n.next {
		if count++; count > len(wg.nodes) {
			return fmt.Errorf("writegraph: order list runs past the graph's %d nodes", len(wg.nodes))
		}
		if wg.nodes[n.id] != n {
			return fmt.Errorf("writegraph: order list holds node %d, which is not in the graph", n.id)
		}
		if n.prev != prev {
			return fmt.Errorf("writegraph: order list's back link at node %d is broken", n.id)
		}
		if prev != nil && n.rank <= prev.rank {
			return fmt.Errorf("writegraph: ranks do not increase along the order list: node %d (%d) after node %d (%d)", n.id, n.rank, prev.id, prev.rank)
		}
		for _, s := range wg.g.Succ(n.id) {
			if wg.nodes[s].rank <= n.rank {
				return fmt.Errorf("writegraph: edge %d->%d runs against the maintained order (ranks %d, %d)", n.id, s, n.rank, wg.nodes[s].rank)
			}
		}
		prev = n
	}
	if prev != wg.last {
		return fmt.Errorf("writegraph: order list's last node is not its end")
	}
	if count != len(wg.nodes) {
		return fmt.Errorf("writegraph: order list holds %d of the graph's %d nodes", count, len(wg.nodes))
	}
	return nil
}

// validateIndexes is the part of Validate that rebuilds the maintained
// indexes from node contents.
func (wg *Graph) validateIndexes() error {
	views := wg.Nodes()
	ops := 0
	readers := map[op.ObjectID]graph.IDSet{}
	var read []op.ObjectID
	writer := map[op.ObjectID]*NodeView{}
	var written []op.ObjectID
	for _, nv := range views {
		ops += len(nv.Ops)
		for _, x := range nv.Reads {
			if len(readers[x]) == 0 {
				read = append(read, x)
			}
			readers[x] = append(readers[x], nv.ID)
		}
		for _, x := range nv.Writes {
			w, ok := writer[x]
			if !ok {
				written = append(written, x)
			}
			if !ok || nv.Lastw[x] > w.Lastw[x] {
				writer[x] = nv
			}
		}
	}
	if ops != wg.opCount {
		return fmt.Errorf("writegraph: nodes hold %d operations, OpCount says %d", ops, wg.opCount)
	}
	if len(wg.disordered) != 0 {
		return fmt.Errorf("writegraph: %d disordered edges left unsettled", len(wg.disordered))
	}
	if err := sameIndex("readersOf", wg.readersOf, readers, read); err != nil {
		return err
	}
	// Every other uninstalled writer of X precedes the one holding X's
	// latest write, so that node is lastWriter[X] until it is installed.
	if len(wg.lastWriter) != len(written) {
		return fmt.Errorf("writegraph: lastWriter has %d objects, node contents write %d", len(wg.lastWriter), len(written))
	}
	lastReaders := map[op.ObjectID]graph.IDSet{}
	var lastRead []op.ObjectID
	for _, x := range written {
		if got, ok := wg.lastWriter[x]; !ok || got != writer[x].ID {
			return fmt.Errorf("writegraph: lastWriter[%q] = %d, latest write is in node %d", x, got, writer[x].ID)
		}
	}
	for _, nv := range views {
		for _, o := range nv.Ops {
			for _, x := range o.ReadSet {
				w, ok := writer[x]
				if !ok || o.LSN <= w.Lastw[x] || lastReaders[x].Has(nv.ID) {
					continue
				}
				if len(lastReaders[x]) == 0 {
					lastRead = append(lastRead, x)
				}
				lastReaders[x] = lastReaders[x].With(nv.ID)
			}
		}
	}
	return sameIndex("readersOfLast", wg.readersOfLast, lastReaders, lastRead)
}

// sameIndex compares a maintained object -> node-set index with one rebuilt
// from node contents, whose objects are keys.  Maintained indexes hold no
// empty sets.
func sameIndex(name string, live, want map[op.ObjectID]graph.IDSet, keys []op.ObjectID) error {
	if len(live) != len(keys) {
		return fmt.Errorf("writegraph: %s has %d objects, node contents give %d", name, len(live), len(keys))
	}
	for _, x := range keys {
		if !slices.Equal(live[x], want[x]) {
			return fmt.Errorf("writegraph: %s[%q] = %v, node contents give %v", name, x, live[x], want[x])
		}
	}
	return nil
}

// FlushSetSizes returns the sorted multiset of |vars(n)| across nodes — the
// statistic experiments E3/E4 report.
func (wg *Graph) FlushSetSizes() []int {
	out := make([]int, 0, len(wg.nodes))
	//lint:ignore replaydeterminism size collection is order-independent; sorted below
	for _, nd := range wg.nodes {
		out = append(out, len(nd.vars))
	}
	sort.Ints(out)
	return out
}

// mergeOps merges the conflict-ordered (LSN-ascending) list b into a, in
// place from the back.  It costs len(b) plus the tail of a that b's
// operations precede — only len(b) when b follows a — rather than copying a,
// which grows with every merge into a long-lived node.
func mergeOps(a, b []*op.Operation) []*op.Operation {
	i, j := len(a)-1, len(b)-1
	a = append(a, b...)
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && a[i].LSN > b[j].LSN {
			a[k] = a[i]
			i--
		} else {
			a[k] = b[j]
			j--
		}
	}
	return a
}

func setToSlice(m map[op.ObjectID]struct{}) []op.ObjectID {
	out := make([]op.ObjectID, 0, len(m))
	//lint:ignore replaydeterminism key collection is order-independent; canonicalized below
	for x := range m {
		out = append(out, x)
	}
	return op.Canonicalize(out)
}

// addID and dropID update one object's set in an index, which holds no
// empty sets.
func addID(index map[op.ObjectID]graph.IDSet, x op.ObjectID, id graph.NodeID) {
	index[x] = index[x].With(id)
}

func dropID(index map[op.ObjectID]graph.IDSet, x op.ObjectID, id graph.NodeID) {
	s, ok := index[x]
	if !ok {
		return
	}
	if s = s.Without(id); len(s) == 0 {
		delete(index, x)
	} else {
		index[x] = s
	}
}
