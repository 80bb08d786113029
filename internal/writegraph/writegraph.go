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
	"math"
	"slices"

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
// The last five are one entry per object in objs.  prev and next link n
// into the list that holds the nodes in the graph's maintained topological
// order; rank increases along that list, with gaps.
type node struct {
	id         graph.NodeID
	rank       int64
	prev, next *node
	// succ and pred are n's edges, each sorted by id.
	succ, pred []*node
	// mark is the epoch of the last order repair whose set B held n; index,
	// low and onStack are Tarjan's state in that repair's pass over B.
	mark       uint64
	index, low int
	onStack    bool
	// gone is set when n is absorbed into another node or removed.
	gone bool
	// ops is in conflict (LSN) order unless unsorted is set: absorb appends
	// the victim's operations and leaves sorting to the next reader.
	ops      []*op.Operation
	unsorted bool
	// objs holds n's objects, sorted by ObjectID.
	objs []entry
	// edges and op are where a new node's first edges and operation go,
	// so that most nodes need no allocation besides themselves and objs.
	edges [4]*node
	op    [1]*op.Operation
}

// entry is one object of a node: which of vars(n), Reads(n) and Writes(n)
// hold it, and Lastw(n,X) when Writes(n) does.  obj is the object's record.
type entry struct {
	x     op.ObjectID
	obj   *object
	flags uint8
	lastw op.SI
}

// Entry flags.
const (
	inVars uint8 = 1 << iota
	inReads
	inWrites
)

// object is the graph's record of one object X with uninstalled operations.
type object struct {
	// holder is the unique node holding X in vars.  The paper: "each X is a
	// member of only one vars(p) for all p".
	holder *node
	// lastWriter is the node containing X's latest (uninstalled) writer,
	// used to resolve Lastw(p,X) readers.
	lastWriter *node
	// readers are the nodes whose Reads contain X, sorted by id: the
	// read-write predecessors of any node that writes X.
	readers []*node
	// lastReaders are the nodes containing operations that read the value
	// lastWriter wrote, sorted by id (reset whenever X is rewritten).  They
	// get inverse write-read edges q -> p when X becomes unexposed in p.
	lastReaders []*node
}

func (r *object) empty() bool {
	return r.holder == nil && r.lastWriter == nil && len(r.readers) == 0 && len(r.lastReaders) == 0
}

// frame is one node on Tarjan's explicit call stack; i is the position of
// the next successor to look at.
type frame struct {
	n *node
	i int
}

// Graph is a write graph under a policy.  It is maintained incrementally:
// AddOp corresponds to the arrival of a logged operation at the cache
// manager, Remove to PurgeCache installing a minimal node.
//
// Both do work proportional to what the operation touches — the nodes
// recorded under the objects it reads or writes, and the nodes its new
// edges move in the maintained topological order — never to the size of
// the uninstalled backlog.  The graph lives on its nodes: each holds its
// edges and objects, and each object has one record naming the nodes that
// hold, last wrote or read it.  AddOp hashes each object it touches once,
// to find that record; nothing else on its path is a map.
//
// Graph is not safe for concurrent use; the cache manager serializes access.
type Graph struct {
	policy Policy
	// nodes holds the nodes ascending by id, so an id is found by binary
	// search.  Absorbed and removed nodes stay in it, marked gone, until
	// they outnumber the live ones.
	nodes  []*node
	live   int
	nextID graph.NodeID
	// minimal holds the nodes with no predecessors, ascending by id.
	minimal []*node
	objects map[op.ObjectID]*object
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

	// disordered lists the edges the current AddOp inserted against the
	// maintained order; settle repairs the order once they are all in.
	disordered [][2]*node
	// visits counts the nodes and edges AddOp examines: recorded readers,
	// inserted edges and the order repair.  Tests use it to check the work
	// per operation.
	visits int

	// Scratch reused across calls.  rrecs and wrecs are the records of the
	// current operation's ReadSet and WriteSet, exposed marks its writes
	// that it also reads; prevHolder is, per write, the node that held it
	// in vars before the merge (nil for an exposed one).
	rrecs, wrecs        []*object
	exposed             []bool
	preds, merge        []*node
	prevHolder          []*node
	heads, tails, order []*node
	frames              []frame
	tarjan, comps       []*node
	compEnds            []int
	objBuf              []entry

	// stats
	merges        int
	cycleCollapse int
}

// New returns an empty write graph under the given policy.
func New(policy Policy) *Graph {
	return &Graph{
		policy:  policy,
		nextID:  1,
		objects: make(map[op.ObjectID]*object),
	}
}

// Policy returns the graph's policy.
func (wg *Graph) Policy() Policy { return wg.policy }

// Len returns the number of nodes.
func (wg *Graph) Len() int { return wg.live }

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
		return wg.addOpW(o), nil
	case PolicyRW:
		return wg.addOpRW(o), nil
	}
	return 0, fmt.Errorf("writegraph: unknown policy %v", wg.policy)
}

// addOpW implements the incremental equivalent of Figure 3's first collapse:
// nodes whose writesets intersect merge (transitive closure of writeset
// overlap), vars(n) = Writes(n), and installation read-write edges order
// nodes.  Cycles collapse (second collapse of Figure 3).
func (wg *Graph) addOpW(o *op.Operation) graph.NodeID {
	wg.resolve(o)
	// Record read-write edges first: nodes that previously read an object
	// this operation writes must be installed before it.
	preds := wg.readWritePredecessors()

	// Merge every node whose Writes overlaps writeset(o).  Under W, vars(n)
	// = Writes(n) and each object is in one vars set, so its holder names
	// it.
	wg.merge = wg.merge[:0]
	for _, rec := range wg.wrecs {
		if rec.holder != nil {
			wg.merge = append(wg.merge, rec.holder)
		}
	}
	m := wg.mergeInto(wg.merge)
	wg.attachOp(m, o)
	wg.addEdgesFrom(preds, m)
	wg.trackReadsWrites(m)
	return wg.settle(m).id
}

// addOpRW implements procedure addop_rW of Figure 6.
func (wg *Graph) addOpRW(o *op.Operation) graph.NodeID {
	wg.resolve(o)
	// Read-write edges: nodes p with Reads(p) ∩ writeset(o) ≠ ∅ precede m.
	preds := wg.readWritePredecessors()

	// Record, before any merging re-points holders, which node currently
	// holds each not-exposed object in its vars, and collect the nodes n
	// with vars(n) ∩ exp(o) ≠ ∅, which merge into m.
	wg.merge, wg.prevHolder = wg.merge[:0], wg.prevHolder[:0]
	for i, rec := range wg.wrecs {
		h := rec.holder
		if wg.exposed[i] {
			if h != nil {
				wg.merge = append(wg.merge, h)
			}
			h = nil
		}
		wg.prevHolder = append(wg.prevHolder, h)
	}
	m := wg.mergeInto(wg.merge)
	wg.attachOp(m, o)
	wg.addEdgesFrom(preds, m)

	// For each p ≠ m with vars(p) ∩ notexp(o) ≠ ∅: remove the not-exposed
	// objects from vars(p); add write-write edge p -> m; and add inverse
	// write-read edges q -> p for nodes q reading Lastw(p,X).
	for i, p := range wg.prevHolder {
		if p == nil || p == m || p.gone {
			// A gone holder was absorbed into m by the exp merge; the
			// object legitimately stays in vars(m).
			continue
		}
		p.find(o.WriteSet[i]).flags &^= inVars
		// attachOp already made m the object's holder.
		wg.addEdge(p, m) // write-write: o ∈ must(op) for op ∈ ops(p)
		// Inverse write-read edges: readers of the value p last wrote to x
		// must install before p so that x is truly unexposed when p's vars
		// are flushed without x.
		if rec := wg.wrecs[i]; rec.lastWriter == p {
			wg.visits += len(rec.lastReaders)
			for _, q := range rec.lastReaders {
				if q != p && !q.gone {
					wg.addEdge(q, p)
				}
			}
		}
	}

	wg.trackReadsWrites(m)
	return wg.settle(m).id
}

// resolve looks up, creating them as needed, the records of the objects o
// reads and writes: one hash per object, whichever sets hold it.
func (wg *Graph) resolve(o *op.Operation) {
	wg.rrecs = wg.rrecs[:0]
	for _, x := range o.ReadSet {
		wg.rrecs = append(wg.rrecs, wg.object(x))
	}
	wg.wrecs, wg.exposed = wg.wrecs[:0], wg.exposed[:0]
	for _, x := range o.WriteSet {
		// exp(o) = writeset ∩ readset; the sets are canonical (sorted).
		var rec *object
		i, exp := slices.BinarySearch(o.ReadSet, x)
		if exp {
			rec = wg.rrecs[i]
		} else {
			rec = wg.object(x)
		}
		wg.wrecs = append(wg.wrecs, rec)
		wg.exposed = append(wg.exposed, exp)
	}
}

// object returns x's record, creating it if x has none.
func (wg *Graph) object(x op.ObjectID) *object {
	rec := wg.objects[x]
	if rec == nil {
		rec = &object{}
		wg.objects[x] = rec
	}
	return rec
}

// readWritePredecessors returns the nodes containing operations that read
// any object the resolved operation writes — installation read-write edges
// point from them to its node — ascending by id.  The result is scratch,
// valid until the next call.
func (wg *Graph) readWritePredecessors() []*node {
	out := wg.preds[:0]
	for _, rec := range wg.wrecs {
		wg.visits += len(rec.readers)
		out = append(out, rec.readers...)
	}
	slices.SortFunc(out, byID)
	wg.preds = slices.Compact(out)
	return wg.preds
}

// addEdgesFrom adds edges p -> to for every p that still exists (a
// predecessor recorded before a merge may have been absorbed).
func (wg *Graph) addEdgesFrom(preds []*node, to *node) {
	for _, p := range preds {
		if p != to && !p.gone {
			wg.addEdge(p, to)
		}
	}
}

// addEdge inserts u -> v, listing it for settle when it runs against the
// maintained order.
func (wg *Graph) addEdge(u, v *node) {
	wg.visits++
	wg.link(u, v)
	if u.rank > v.rank {
		wg.disordered = append(wg.disordered, [2]*node{u, v})
	}
}

// link inserts u -> v into both nodes' edge lists unless it is there, and
// takes v out of the minimal set when it gains its first predecessor.
func (wg *Graph) link(u, v *node) {
	i, found := searchID(u.succ, v.id)
	if found {
		return
	}
	u.succ = slices.Insert(u.succ, i, v)
	if len(v.pred) == 0 {
		wg.minimal = without(wg.minimal, v)
	}
	v.pred = with(v.pred, u)
}

// unlinkAll drops every edge of n.  Successors left without predecessors
// become minimal, and so does nothing else: n itself is leaving.
func (wg *Graph) unlinkAll(n *node) {
	if len(n.pred) == 0 {
		// Draining installs the first minimal node over and over:
		// reslicing keeps that O(1) where a delete would move the rest.
		if wg.minimal[0] == n {
			wg.minimal[0] = nil
			wg.minimal = wg.minimal[1:]
		} else {
			wg.minimal = without(wg.minimal, n)
		}
	}
	for _, v := range n.succ {
		if v.pred = without(v.pred, n); len(v.pred) == 0 {
			wg.minimal = with(wg.minimal, v)
		}
	}
	for _, u := range n.pred {
		u.succ = without(u.succ, n)
	}
	// Clearing edges too keeps a gone node from holding on to others.
	n.succ, n.pred, n.edges = nil, nil, [4]*node{}
}

// newNode adds an empty node at the end of the maintained order.
func (wg *Graph) newNode() *node {
	nd := &node{id: wg.nextID}
	nd.succ, nd.pred, nd.ops = nd.edges[0:0:2], nd.edges[2:2:4], nd.op[:0]
	wg.nextID++
	wg.place(wg.last, nd)
	wg.nodes = append(wg.nodes, nd)
	wg.live++
	// The new id is the largest, so it goes last in the minimal set.
	wg.minimal = append(wg.minimal, nd)
	return nd
}

// retire marks n gone once it has left the graph and drops what it holds;
// the id table sheds gone nodes when they outnumber the live ones.
func (wg *Graph) retire(n *node) {
	n.gone = true
	n.ops, n.objs = nil, nil
	wg.live--
	if len(wg.nodes) > 2*wg.live+32 {
		wg.nodes = slices.DeleteFunc(wg.nodes, func(n *node) bool { return n.gone })
	}
}

// node returns the node with the given id, or nil.
func (wg *Graph) node(id graph.NodeID) *node {
	i, found := searchID(wg.nodes, id)
	if !found || wg.nodes[i].gone {
		return nil
	}
	return wg.nodes[i]
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
	step := min(rankGap, math.MaxInt64/int64(wg.live+2))
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
// list is empty) and returns the survivor, the one with the smallest id.
// Edges are re-pointed; self-edges are dropped.  It sorts list in place.
func (wg *Graph) mergeInto(list []*node) *node {
	if len(list) == 0 {
		return wg.newNode()
	}
	slices.SortFunc(list, byID)
	list = slices.Compact(list)
	survivor := list[0]
	for _, victim := range list[1:] {
		wg.absorb(survivor, victim)
		wg.merges++
	}
	return survivor
}

// absorb merges victim into survivor and deletes it.  Collapsing two nodes
// joins every path that ran between them; the re-pointed edges that run
// against the maintained order are listed for settle like any new edge.
func (wg *Graph) absorb(survivor, victim *node) {
	if len(victim.ops) > 0 {
		if victim.unsorted || len(survivor.ops) > 0 && victim.ops[0].LSN < survivor.ops[len(survivor.ops)-1].LSN {
			survivor.unsorted = true
		}
		survivor.ops = append(survivor.ops, victim.ops...)
	}
	wg.mergeObjects(survivor, victim)
	// Re-point edges.
	for _, s := range victim.succ {
		if s != survivor {
			wg.addEdge(survivor, s)
		}
	}
	for _, p := range victim.pred {
		if p != survivor {
			wg.addEdge(p, survivor)
		}
	}
	wg.unlinkAll(victim)
	wg.unlink(victim)
	wg.retire(victim)
}

// mergeObjects folds victim's object entries into survivor's and re-points
// the records of victim's objects to survivor.  When survivor already has
// every one of victim's objects the entries fold in place; otherwise the
// two sorted lists merge into the scratch list, which then trades places
// with survivor's.
func (wg *Graph) mergeObjects(survivor, victim *node) {
	for _, ve := range victim.objs {
		wg.repoint(ve, survivor, victim)
	}
	missing := false
	for _, ve := range victim.objs {
		if e := survivor.find(ve.x); e != nil {
			e.flags |= ve.flags
			e.lastw = max(e.lastw, ve.lastw)
		} else {
			missing = true
		}
	}
	if !missing {
		return
	}
	merged := wg.objBuf[:0]
	s, v := survivor.objs, victim.objs
	for len(s) > 0 || len(v) > 0 {
		switch {
		case len(v) == 0 || len(s) > 0 && s[0].x <= v[0].x:
			// Shared objects were folded into survivor's entry above.
			if len(v) > 0 && s[0].x == v[0].x {
				v = v[1:]
			}
			merged = append(merged, s[0])
			s = s[1:]
		default:
			merged = append(merged, v[0])
			v = v[1:]
		}
	}
	wg.objBuf = survivor.objs[:0]
	survivor.objs = merged
}

// repoint moves the record of victim's entry ve over to survivor: both
// reader sets only ever hold nodes whose Reads contain the object.
func (wg *Graph) repoint(ve entry, survivor, victim *node) {
	rec := ve.obj
	if ve.flags&inVars != 0 {
		rec.holder = survivor
	}
	if ve.flags&inReads != 0 {
		rec.readers = with(without(rec.readers, victim), survivor)
		if has(rec.lastReaders, victim) {
			rec.lastReaders = with(without(rec.lastReaders, victim), survivor)
		}
	}
	if ve.flags&inWrites != 0 && rec.lastWriter == victim {
		rec.lastWriter = survivor
	}
}

// attachOp appends the resolved operation o to nd and adds its writeset to
// vars(nd), making nd each written object's holder.
func (wg *Graph) attachOp(nd *node, o *op.Operation) {
	nd.ops = append(nd.ops, o)
	wg.opCount++
	if nd.objs == nil {
		nd.objs = make([]entry, 0, len(o.ReadSet)+len(o.WriteSet))
	}
	for i, x := range o.ReadSet {
		rec := wg.rrecs[i]
		nd.ensure(x, rec).flags |= inReads
		rec.readers = with(rec.readers, nd)
	}
	for i, x := range o.WriteSet {
		rec := wg.wrecs[i]
		e := nd.ensure(x, rec)
		e.flags |= inVars | inWrites
		e.lastw = o.LSN
		// Under rW an object may currently sit in another node's vars only
		// if x ∉ exp(o), and addOpRW takes it out of there; if x ∈ exp(o)
		// that node was merged into nd.  Under W the overlap merge
		// guarantees the same.  So this re-point is safe.
		rec.holder = nd
	}
}

// trackReadsWrites updates the Lastw reader records for the resolved
// operation, which now lives in nd.  Reads happen before writes within an
// operation.  A read of an object with no uninstalled writer is not
// recorded: inverse write-read edges only ever point into a node that last
// wrote the object.
func (wg *Graph) trackReadsWrites(nd *node) {
	for _, rec := range wg.rrecs {
		if rec.lastWriter != nil {
			rec.lastReaders = with(rec.lastReaders, nd)
		}
	}
	for _, rec := range wg.wrecs {
		rec.lastWriter = nd
		clear(rec.lastReaders)
		rec.lastReaders = rec.lastReaders[:0]
	}
}

// find returns n's entry for x, or nil.
func (n *node) find(x op.ObjectID) *entry {
	if i, found := n.search(x); found {
		return &n.objs[i]
	}
	return nil
}

// ensure returns n's entry for x, adding an empty one for the record rec
// if n has none.  The pointer is valid until n's entries next change.
func (n *node) ensure(x op.ObjectID, rec *object) *entry {
	i, found := n.search(x)
	if !found {
		n.objs = slices.Insert(n.objs, i, entry{x: x, obj: rec})
	}
	return &n.objs[i]
}

// sortOps puts n's operations back in conflict order after absorb appended
// out of it.
func (n *node) sortOps() {
	if n.unsorted {
		slices.SortFunc(n.ops, func(a, b *op.Operation) int { return cmp.Compare(a.LSN, b.LSN) })
		n.unsorted = false
	}
}

// settle restores the maintained topological order once all of an AddOp's
// edges are in, collapsing every strongly connected component they closed
// (the second collapse of Figure 3), and returns the node that now holds
// the operations of start.  It waits for the end of the AddOp because
// addop_rW reads node membership and Lastw writers between its edge
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
func (wg *Graph) settle(start *node) *node {
	var low *node
	heads, tails := wg.heads[:0], wg.tails[:0]
	for _, e := range wg.disordered {
		u, v := e[0], e[1]
		if u.gone || v.gone || u.rank < v.rank {
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
	clear(wg.disordered)
	wg.disordered = wg.disordered[:0]
	wg.heads, wg.tails = heads, tails
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
		wg.visits += len(moved)
		wg.components(moved)
		moved = moved[:0]
		for k := len(wg.compEnds) - 1; k >= 0; k-- {
			begin := 0
			if k > 0 {
				begin = wg.compEnds[k-1]
			}
			comp := wg.comps[begin:wg.compEnds[k]]
			survivor := comp[0]
			if len(comp) > 1 {
				wg.cycleCollapse++
				for _, n := range comp[1:] {
					if n == start {
						start = survivor
					}
					wg.absorb(survivor, n)
				}
			}
			moved = append(moved, survivor)
		}
		// absorb re-pointed edges within B or across its boundary, which
		// the placement below satisfies like every other such edge.
		clear(wg.disordered)
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
// a fresh epoch.  It takes over tails as its stack.  The result is scratch,
// valid until the next call.
func (wg *Graph) ancestors(tails []*node, lo int64) []*node {
	wg.epoch++
	order := wg.order[:0]
	stack := tails
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.mark == wg.epoch {
			continue
		}
		n.mark = wg.epoch
		order = append(order, n)
		wg.visits += 1 + len(n.pred)
		for _, p := range n.pred {
			if p.rank >= lo && p.mark != wg.epoch {
				stack = append(stack, p)
			}
		}
	}
	wg.tails, wg.order = stack, order
	return order
}

// components runs Tarjan's algorithm (iterative, so a deep B cannot
// overflow the goroutine stack) over the subgraph induced by the current
// set B, exploring from roots in order; roots must list all of B.  It
// follows only edges between nodes of B.  The components, each sorted by
// id, go to comps, the end of each to compEnds, in reverse topological
// order: Tarjan emits a component only after every other one it can reach,
// so for each edge u -> v between two components, v's comes first.
func (wg *Graph) components(roots []*node) {
	for _, n := range roots {
		n.index, n.onStack = 0, false
	}
	wg.comps, wg.compEnds = wg.comps[:0], wg.compEnds[:0]
	stack, frames := wg.tarjan[:0], wg.frames[:0]
	next := 0
	visit := func(n *node) {
		next++
		n.index, n.low = next, next
		n.onStack = true
		stack = append(stack, n)
		frames = append(frames, frame{n: n})
	}
	for _, root := range roots {
		if root.index != 0 {
			continue
		}
		visit(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			n := f.n
			for f.i < len(n.succ) && n.succ[f.i].mark != wg.epoch {
				f.i++
			}
			if f.i < len(n.succ) {
				s := n.succ[f.i]
				f.i++
				if s.index == 0 {
					visit(s)
				} else if s.onStack && s.index < n.low {
					n.low = s.index
				}
				continue
			}
			// All successors explored: maybe emit a component.
			if n.low == n.index {
				begin := len(wg.comps)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					w.onStack = false
					wg.comps = append(wg.comps, w)
					if w == n {
						break
					}
				}
				slices.SortFunc(wg.comps[begin:], byID)
				wg.compEnds = append(wg.compEnds, len(wg.comps))
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].n; n.low < p.low {
					p.low = n.low
				}
			}
		}
	}
	wg.tarjan, wg.frames = stack, frames
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
	nd := wg.node(id)
	if nd == nil {
		return nil
	}
	return view(nd)
}

// view snapshots nd; the snapshot shares no memory with the graph.
func view(nd *node) *NodeView {
	v := detach(nd)
	v.Ops = slices.Clone(v.Ops)
	return v
}

// detach is view for a node leaving the graph: nothing will change nd
// again, so the snapshot takes over its operation list instead of copying
// it.  The object lists come out in canonical order because the entries
// are kept in it, and share one backing array.
func detach(nd *node) *NodeView {
	nd.sortOps()
	var nvars, nnotx, nreads, nwrites int
	for _, e := range nd.objs {
		if e.flags&inVars != 0 {
			nvars++
		} else if e.flags&inWrites != 0 {
			nnotx++
		}
		if e.flags&inReads != 0 {
			nreads++
		}
		if e.flags&inWrites != 0 {
			nwrites++
		}
	}
	buf := make([]op.ObjectID, 0, nvars+nnotx+nreads+nwrites)
	carve := func(n int) []op.ObjectID {
		s := buf[len(buf) : len(buf) : len(buf)+n]
		buf = buf[:len(buf)+n]
		return s
	}
	v := &NodeView{
		ID:     nd.id,
		Ops:    nd.ops,
		Vars:   carve(nvars),
		Reads:  carve(nreads),
		Writes: carve(nwrites),
		Lastw:  make(map[op.ObjectID]op.SI, nwrites),
	}
	if nnotx > 0 {
		v.Notx = carve(nnotx)
	}
	for _, e := range nd.objs {
		if e.flags&inVars != 0 {
			v.Vars = append(v.Vars, e.x)
		} else if e.flags&inWrites != 0 {
			v.Notx = append(v.Notx, e.x)
		}
		if e.flags&inReads != 0 {
			v.Reads = append(v.Reads, e.x)
		}
		if e.flags&inWrites != 0 {
			v.Writes = append(v.Writes, e.x)
			v.Lastw[e.x] = e.lastw
		}
	}
	return v
}

// Nodes returns snapshots of all nodes, ordered by id.
func (wg *Graph) Nodes() []*NodeView {
	out := make([]*NodeView, 0, wg.live)
	for _, n := range wg.nodes {
		if !n.gone {
			out = append(out, view(n))
		}
	}
	return out
}

// Minimal returns ids of nodes with no predecessors — the flush candidates
// of PurgeCache.
func (wg *Graph) Minimal() []graph.NodeID {
	if len(wg.minimal) == 0 {
		return nil
	}
	out := make([]graph.NodeID, len(wg.minimal))
	for i, n := range wg.minimal {
		out[i] = n.id
	}
	return out
}

// FirstMinimal returns the smallest-id node with no predecessors — the
// flush candidate PurgeCache chooses — without scanning the graph.
func (wg *Graph) FirstMinimal() (graph.NodeID, bool) {
	if len(wg.minimal) == 0 {
		return 0, false
	}
	return wg.minimal[0].id, true
}

// FlushSet returns what installing node id flushes, vars(n), and what it
// installs without flushing, Notx(n), both in canonical order; ok is false
// when there is no such node.  It is the part of Node the installer needs
// before it commits to an install.
func (wg *Graph) FlushSet(id graph.NodeID) (vars, notx []op.ObjectID, ok bool) {
	nd := wg.node(id)
	if nd == nil {
		return nil, nil, false
	}
	vars = []op.ObjectID{}
	for _, e := range nd.objs {
		if e.flags&inVars != 0 {
			vars = append(vars, e.x)
		} else if e.flags&inWrites != 0 {
			notx = append(notx, e.x)
		}
	}
	return vars, notx, true
}

// IsMinimal reports whether node id exists and has no predecessors.
func (wg *Graph) IsMinimal(id graph.NodeID) bool {
	nd := wg.node(id)
	return nd != nil && len(nd.pred) == 0
}

// NodeOf returns the id of the node holding x in its vars, if any.
func (wg *Graph) NodeOf(x op.ObjectID) (graph.NodeID, bool) {
	if rec := wg.objects[x]; rec != nil && rec.holder != nil {
		return rec.holder.id, true
	}
	return 0, false
}

// NodeOfOp returns the id of the node containing the operation with the
// given LSN, if any.  It walks the whole graph: a standby mirroring an
// install record calls it, and tests do.
func (wg *Graph) NodeOfOp(lsn op.SI) (graph.NodeID, bool) {
	for n := wg.first; n != nil; n = n.next {
		for _, o := range n.ops {
			if o.LSN == lsn {
				return n.id, true
			}
		}
	}
	return 0, false
}

// HasEdge reports whether the write graph orders u before v.
func (wg *Graph) HasEdge(u, v graph.NodeID) bool {
	nu := wg.node(u)
	if nu == nil {
		return false
	}
	_, found := searchID(nu.succ, v)
	return found
}

// Remove installs node id: it must be minimal (no predecessors).  It returns
// a snapshot of the removed node (whose Vars the caller must have flushed
// atomically and whose Notx objects are installed without flushing) and
// detaches it from the graph; the snapshot owns the node's operation list.
// Per the paper, removal never creates cycles.
func (wg *Graph) Remove(id graph.NodeID) (*NodeView, error) {
	nd := wg.node(id)
	if nd == nil {
		return nil, fmt.Errorf("writegraph: no node %d", id)
	}
	if len(nd.pred) != 0 {
		return nil, fmt.Errorf("writegraph: node %d is not minimal (in-degree %d)", id, len(nd.pred))
	}
	v := detach(nd)
	for _, e := range nd.objs {
		rec := e.obj
		if rec.holder == nd {
			rec.holder = nil
		}
		if rec.lastWriter == nd {
			rec.lastWriter = nil
			clear(rec.lastReaders)
			rec.lastReaders = rec.lastReaders[:0]
		}
		if e.flags&inReads != 0 {
			rec.readers = without(rec.readers, nd)
			rec.lastReaders = without(rec.lastReaders, nd)
		}
		if rec.empty() {
			delete(wg.objects, e.x)
		}
	}
	wg.opCount -= len(nd.ops)
	wg.unlinkAll(nd)
	wg.unlink(nd)
	wg.retire(nd)
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
	nd := wg.node(id)
	if nd == nil {
		return nil, fmt.Errorf("writegraph: no node %d", id)
	}
	// Retain the var with the max Lastw (the first in canonical order on a
	// tie); identity-write the rest.
	var keep *entry
	nvars := 0
	for i := range nd.objs {
		if e := &nd.objs[i]; e.flags&inVars != 0 {
			nvars++
			if keep == nil || e.lastw > keep.lastw {
				keep = e
			}
		}
	}
	if nvars <= 1 {
		return nil, nil
	}
	plan := make([]op.ObjectID, 0, nvars-1)
	for i := range nd.objs {
		if e := &nd.objs[i]; e.flags&inVars != 0 && e != keep {
			plan = append(plan, e.x)
		}
	}
	return plan, nil
}

// FlushSetSizes returns the sorted multiset of |vars(n)| across nodes — the
// statistic experiments E3/E4 report.
func (wg *Graph) FlushSetSizes() []int {
	out := make([]int, 0, wg.live)
	for _, n := range wg.nodes {
		if n.gone {
			continue
		}
		size := 0
		for _, e := range n.objs {
			if e.flags&inVars != 0 {
				size++
			}
		}
		out = append(out, size)
	}
	slices.Sort(out)
	return out
}

// byID orders nodes by id.
func byID(a, b *node) int { return cmp.Compare(a.id, b.id) }

// searchID returns the position of id in the id-sorted s, or where it would
// be inserted, and whether it is there.  The loop is written out rather than
// left to slices.BinarySearchFunc: it runs on every edge and record update,
// and the callback costs as much as the comparison.
func searchID(s []*node, id graph.NodeID) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s) && s[lo].id == id
}

// search is searchID for n's entries, by object.
func (n *node) search(x op.ObjectID) (int, bool) {
	lo, hi := 0, len(n.objs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n.objs[m].x < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(n.objs) && n.objs[lo].x == x
}

// with returns the id-sorted set s plus n; s's backing array may be reused.
func with(s []*node, n *node) []*node {
	i, found := searchID(s, n.id)
	if found {
		return s
	}
	return slices.Insert(s, i, n)
}

// without returns the id-sorted set s minus n; s's backing array may be
// reused.
func without(s []*node, n *node) []*node {
	if i, found := searchID(s, n.id); found {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// has reports whether the id-sorted set s holds n.
func has(s []*node, n *node) bool {
	_, found := searchID(s, n.id)
	return found
}
