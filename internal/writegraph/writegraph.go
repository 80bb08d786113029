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
	"fmt"
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
type node struct {
	id     graph.NodeID
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
// Graph is not safe for concurrent use; the cache manager serializes access.
type Graph struct {
	policy Policy
	g      *graph.Digraph
	nodes  map[graph.NodeID]*node
	nextID graph.NodeID

	// byVar maps an object to the unique node holding it in vars.  The
	// paper: "each X is a member of only one vars(p) for all p".
	byVar map[op.ObjectID]graph.NodeID
	// lastWriter maps an object to the node containing its latest
	// (uninstalled) writer, used to resolve Lastw(p,X) readers.
	lastWriter map[op.ObjectID]graph.NodeID
	// readersOfLast maps an object X to the nodes containing operations
	// that read the value written by X's latest writer (reset whenever X
	// is rewritten).  These nodes get inverse write-read edges q -> p when
	// X becomes unexposed in p.
	readersOfLast map[op.ObjectID]map[graph.NodeID]struct{}

	// cycleRisk is set when the current AddOp adds an edge or merges two
	// or more existing nodes — the only mutations that can turn the
	// (invariantly acyclic) graph cyclic.  newEdges and mergedNodes record
	// exactly which edges/survivors this AddOp introduced so that
	// collapseCyclesAround can prove acyclicity with a bounded local
	// reachability probe instead of a global SCC pass, keeping a long run
	// of blind writes (and their redo replay) linear instead of quadratic
	// in the graph size.
	cycleRisk   bool
	newEdges    [][2]graph.NodeID
	mergedNodes []graph.NodeID

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
		readersOfLast: make(map[op.ObjectID]map[graph.NodeID]struct{}),
	}
}

// Policy returns the graph's policy.
func (wg *Graph) Policy() Policy { return wg.policy }

// Len returns the number of nodes.
func (wg *Graph) Len() int { return len(wg.nodes) }

// OpCount returns the number of uninstalled operations across all nodes.
func (wg *Graph) OpCount() int {
	n := 0
	//lint:ignore replaydeterminism commutative sum
	for _, nd := range wg.nodes {
		n += len(nd.ops)
	}
	return n
}

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

	// Merge every node whose Writes overlaps writeset(o).
	var mergeIDs []graph.NodeID
	seen := map[graph.NodeID]struct{}{}
	for _, x := range o.WriteSet {
		//lint:ignore replaydeterminism collects a merge set; mergeInto sorts it before picking the survivor
		for id, nd := range wg.nodes {
			if _, ok := nd.writes[x]; ok {
				if _, dup := seen[id]; !dup {
					seen[id] = struct{}{}
					mergeIDs = append(mergeIDs, id)
				}
			}
		}
	}
	m := wg.mergeInto(mergeIDs)
	wg.attachOp(m, o, o.WriteSet /* vars gets full writeset */)
	wg.addEdgesFrom(preds, m.id)
	wg.trackReadsWrites(m, o)
	return wg.collapseCyclesAround(m.id), nil
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
		wg.g.AddEdge(p, to)
		wg.cycleRisk = true
		wg.newEdges = append(wg.newEdges, [2]graph.NodeID{p, to})
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
		wg.g.AddEdge(pid, m.id) // write-write: o ∈ must(op) for op ∈ ops(p)
		wg.cycleRisk = true
		wg.newEdges = append(wg.newEdges, [2]graph.NodeID{pid, m.id})
		// Inverse write-read edges: readers of the value p last wrote to x
		// must install before p so that x is truly unexposed when p's vars
		// are flushed without x.
		if wg.lastWriter[x] == pid {
			//lint:ignore replaydeterminism edge-set insertion; the digraph coalesces edges, so order cannot matter
			for qid := range wg.readersOfLast[x] {
				if qid != pid && wg.g.HasNode(qid) {
					wg.g.AddEdge(qid, pid)
					wg.cycleRisk = true
					wg.newEdges = append(wg.newEdges, [2]graph.NodeID{qid, pid})
				}
			}
		}
	}

	wg.trackReadsWrites(m, o)
	return wg.collapseCyclesAround(m.id), nil
}

// readWritePredecessors returns ids of nodes containing operations that read
// any object o writes — installation read-write edges point from them to
// o's node.  The result is sorted: downstream consumers only build edge
// sets today, but the predecessor list must not leak map-iteration order
// into anything replay-visible.
func (wg *Graph) readWritePredecessors(o *op.Operation) []graph.NodeID {
	var out []graph.NodeID
	seen := map[graph.NodeID]struct{}{}
	for _, x := range o.WriteSet {
		//lint:ignore replaydeterminism membership filter is order-independent; sorted below
		for id, nd := range wg.nodes {
			if _, ok := nd.reads[x]; ok {
				if _, dup := seen[id]; !dup {
					seen[id] = struct{}{}
					out = append(out, id)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mergeInto merges the given nodes into one (creating a fresh node if the
// list is empty) and returns the survivor.  Edges are re-pointed; self-edges
// are dropped.
func (wg *Graph) mergeInto(ids []graph.NodeID) *node {
	if len(ids) == 0 {
		nd := &node{
			id:     wg.nextID,
			vars:   make(map[op.ObjectID]struct{}),
			reads:  make(map[op.ObjectID]struct{}),
			writes: make(map[op.ObjectID]struct{}),
			lastw:  make(map[op.ObjectID]op.SI),
		}
		wg.nextID++
		wg.nodes[nd.id] = nd
		wg.g.AddNode(nd.id)
		return nd
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	survivor := wg.nodes[ids[0]]
	if len(ids) > 1 {
		// Collapsing distinct nodes can close a cycle through any path
		// that ran between them, even though no edge is added.
		wg.cycleRisk = true
		wg.mergedNodes = append(wg.mergedNodes, survivor.id)
	}
	for _, id := range ids[1:] {
		wg.absorb(survivor, id)
		wg.merges++
	}
	return survivor
}

// absorb merges node id into survivor and deletes it.
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
			wg.g.AddEdge(survivor.id, s)
		}
	}
	for _, p := range wg.g.Pred(id) {
		if p != survivor.id {
			wg.g.AddEdge(p, survivor.id)
		}
	}
	wg.g.RemoveNode(id)
	delete(wg.nodes, id)
	// Re-point reader registries.
	//lint:ignore replaydeterminism independent per-entry re-point; final maps identical in any order
	for _, readers := range wg.readersOfLast {
		if _, ok := readers[id]; ok {
			delete(readers, id)
			readers[survivor.id] = struct{}{}
		}
	}
}

// attachOp appends o to nd and adds varsToAdd into vars(nd), re-pointing the
// byVar registry.
func (wg *Graph) attachOp(nd *node, o *op.Operation, varsToAdd []op.ObjectID) {
	nd.ops = append(nd.ops, o)
	for _, x := range varsToAdd {
		nd.vars[x] = struct{}{}
		// Under rW an object may currently sit in another node's vars only
		// if x ∈ exp(o) — but then that node was merged into nd.  Under W
		// the overlap merge guarantees the same.  So this re-point is safe.
		wg.byVar[x] = nd.id
	}
	for _, x := range o.ReadSet {
		nd.reads[x] = struct{}{}
	}
	for _, x := range o.WriteSet {
		nd.writes[x] = struct{}{}
		nd.lastw[x] = o.LSN
	}
}

// trackReadsWrites updates the Lastw reader registries for o, which now
// lives in nd.  Reads happen before writes within an operation.
func (wg *Graph) trackReadsWrites(nd *node, o *op.Operation) {
	for _, x := range o.ReadSet {
		if _, ok := wg.readersOfLast[x]; !ok {
			wg.readersOfLast[x] = make(map[graph.NodeID]struct{})
		}
		wg.readersOfLast[x][nd.id] = struct{}{}
	}
	for _, x := range o.WriteSet {
		wg.lastWriter[x] = nd.id
		wg.readersOfLast[x] = make(map[graph.NodeID]struct{})
	}
}

// collapseCyclesAround collapses every strongly connected component of size
// greater than one (the second collapse of Figure 3, applied after each
// incremental insertion) and returns the id of the node that now holds the
// operations of start.  A global pass is needed: the write-write and inverse
// write-read edges added by addop_rW can close cycles anywhere in the graph,
// not only around the freshly inserted node.
func (wg *Graph) collapseCyclesAround(start graph.NodeID) graph.NodeID {
	// Fast path 1: if this insertion added no edges and merged at most one
	// node, the graph was acyclic before and still is.
	if !wg.cycleRisk {
		return start
	}
	wg.cycleRisk = false
	// Fast path 2: any new cycle must pass through a freshly added edge or
	// a merge survivor; a bounded local reachability probe over just those
	// proves acyclicity without the global SCC pass.  This is what keeps a
	// long run of blind writes — and their redo replay, where the graph
	// holds every uninstalled operation — linear instead of quadratic.
	if !wg.maybeCyclic() {
		return start
	}
	for {
		collapsed := false
		for _, comp := range wg.g.SCC() {
			if len(comp) <= 1 {
				continue
			}
			collapsed = true
			wg.cycleCollapse++
			survivor := wg.nodes[comp[0]]
			for _, id := range comp[1:] {
				if id == start {
					start = survivor.id
				}
				wg.absorb(survivor, id)
			}
		}
		if !collapsed {
			return start
		}
		// Merging SCCs computed from a single snapshot yields the
		// condensation, which is acyclic; the loop re-checks to defend
		// against interaction between multiple merges in one pass.
	}
}

// cycleProbeBudget bounds the total nodes maybeCyclic may visit per AddOp;
// past it the probe answers "maybe" and the full SCC pass decides.
const cycleProbeBudget = 512

// maybeCyclic reports whether this AddOp could have closed a cycle.  The
// graph was acyclic before the insertion, so a new cycle must traverse a
// fresh edge (u, v) — meaning u is reachable from v — or pass through a
// merge survivor (collapsing two nodes joins every path that ran between
// them).  False is definitive; true hands off to the SCC collapse.
func (wg *Graph) maybeCyclic() bool {
	defer func() {
		wg.newEdges = wg.newEdges[:0]
		wg.mergedNodes = wg.mergedNodes[:0]
	}()
	budget := cycleProbeBudget
	for _, e := range wg.newEdges {
		if !wg.g.HasNode(e[0]) || !wg.g.HasNode(e[1]) {
			continue // endpoint absorbed by a later merge in the same AddOp
		}
		if wg.pathExists(e[1], e[0], make(map[graph.NodeID]bool), &budget) {
			return true
		}
	}
	for _, s := range wg.mergedNodes {
		if !wg.g.HasNode(s) {
			continue
		}
		visited := make(map[graph.NodeID]bool)
		for _, succ := range wg.g.Succ(s) {
			if wg.pathExists(succ, s, visited, &budget) {
				return true
			}
		}
	}
	return false
}

// pathExists reports whether target is reachable from from, decrementing
// *budget per visited node; an exhausted budget answers true (conservative:
// the caller falls back to the full SCC pass).
func (wg *Graph) pathExists(from, target graph.NodeID, visited map[graph.NodeID]bool, budget *int) bool {
	if from == target {
		return true
	}
	if visited[from] {
		return false
	}
	if *budget <= 0 {
		return true
	}
	*budget--
	visited[from] = true
	for _, s := range wg.g.Succ(from) {
		if wg.pathExists(s, target, visited, budget) {
			return true
		}
	}
	return false
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

func (wg *Graph) view(nd *node) *NodeView {
	v := &NodeView{
		ID:     nd.id,
		Ops:    append([]*op.Operation(nil), nd.ops...),
		Vars:   setToSlice(nd.vars),
		Notx:   nd.notx(),
		Reads:  setToSlice(nd.reads),
		Writes: setToSlice(nd.writes),
		Lastw:  make(map[op.ObjectID]op.SI, len(nd.lastw)),
	}
	//lint:ignore replaydeterminism map copy; resulting map identical in any order
	for x, l := range nd.lastw {
		v.Lastw[x] = l
	}
	return v
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
// detaches it from the graph.  Per the paper, removal never creates cycles.
func (wg *Graph) Remove(id graph.NodeID) (*NodeView, error) {
	nd, ok := wg.nodes[id]
	if !ok {
		return nil, fmt.Errorf("writegraph: no node %d", id)
	}
	if wg.g.InDegree(id) != 0 {
		return nil, fmt.Errorf("writegraph: node %d is not minimal (in-degree %d)", id, wg.g.InDegree(id))
	}
	v := wg.view(nd)
	//lint:ignore replaydeterminism independent per-key deletes; final maps identical in any order
	for x := range nd.vars {
		if wg.byVar[x] == id {
			delete(wg.byVar, x)
		}
	}
	//lint:ignore replaydeterminism independent per-key deletes; final maps identical in any order
	for x, w := range wg.lastWriter {
		if w == id {
			delete(wg.lastWriter, x)
			delete(wg.readersOfLast, x)
		}
	}
	//lint:ignore replaydeterminism independent per-entry deletes; final maps identical in any order
	for _, readers := range wg.readersOfLast {
		delete(readers, id)
	}
	wg.g.RemoveNode(id)
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
// agrees with node contents, and under W vars == Writes for every node.
func (wg *Graph) Validate() error {
	if err := wg.g.Validate(); err != nil {
		return err
	}
	if wg.g.HasCycle() {
		return fmt.Errorf("writegraph: graph has a cycle after collapse")
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

func setToSlice(m map[op.ObjectID]struct{}) []op.ObjectID {
	out := make([]op.ObjectID, 0, len(m))
	//lint:ignore replaydeterminism key collection is order-independent; canonicalized below
	for x := range m {
		out = append(out, x)
	}
	return op.Canonicalize(out)
}

func mergeOps(a, b []*op.Operation) []*op.Operation {
	out := make([]*op.Operation, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].LSN <= b[j].LSN {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
