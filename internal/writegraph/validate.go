package writegraph

import (
	"fmt"
	"slices"

	"logicallog/internal/graph"
	"logicallog/internal/op"
)

// Validate checks the graph's structural invariants: the maintained order
// (validateOrder); the node-held edges, which must agree both ways, and the
// minimal set (validateEdges); that the graph the edges form, rebuilt as a
// graph.Digraph, is consistent and acyclic and has exactly the maintained
// minimal set as its nodes of in-degree zero; and, rebuilt from node
// contents, every object record and the operation count (validateObjects).
func (wg *Graph) Validate() error {
	if err := wg.validateOrder(); err != nil {
		return err
	}
	if err := wg.validateEdges(); err != nil {
		return err
	}
	g := wg.digraph()
	if err := g.Validate(); err != nil {
		return err
	}
	if g.HasCycle() {
		return fmt.Errorf("writegraph: graph has a cycle after collapse")
	}
	if got, want := wg.Minimal(), g.Minimal(); !slices.Equal(got, want) {
		return fmt.Errorf("writegraph: minimal set %v, in-degrees give %v", got, want)
	}
	return wg.validateObjects()
}

// digraph rebuilds the graph's edges as a graph.Digraph, walking the order
// list.
func (wg *Graph) digraph() *graph.Digraph {
	g := graph.New()
	for n := wg.first; n != nil; n = n.next {
		g.AddNode(n.id)
	}
	for n := wg.first; n != nil; n = n.next {
		for _, s := range n.succ {
			g.AddEdge(n.id, s.id)
		}
	}
	return g
}

// validateOrder checks the order list and the id table: the list's links
// agree both ways, first and last are its ends, it holds every live node of
// the id table exactly once, ranks increase strictly along it, and every
// edge points forward; the id table is ascending.
func (wg *Graph) validateOrder() error {
	live := 0
	for i, n := range wg.nodes {
		if i > 0 && n.id <= wg.nodes[i-1].id {
			return fmt.Errorf("writegraph: id table not ascending at node %d", n.id)
		}
		if !n.gone {
			live++
		}
	}
	if live != wg.live {
		return fmt.Errorf("writegraph: id table holds %d live nodes, Len says %d", live, wg.live)
	}
	if wg.first != nil && wg.first.prev != nil {
		return fmt.Errorf("writegraph: order list's first node %d has a predecessor", wg.first.id)
	}
	var prev *node
	count := 0
	for n := wg.first; n != nil; n = n.next {
		if count++; count > wg.live {
			return fmt.Errorf("writegraph: order list runs past the graph's %d nodes", wg.live)
		}
		if wg.node(n.id) != n {
			return fmt.Errorf("writegraph: order list holds node %d, which is not in the graph", n.id)
		}
		if n.prev != prev {
			return fmt.Errorf("writegraph: order list's back link at node %d is broken", n.id)
		}
		if prev != nil && n.rank <= prev.rank {
			return fmt.Errorf("writegraph: ranks do not increase along the order list: node %d (%d) after node %d (%d)", n.id, n.rank, prev.id, prev.rank)
		}
		for _, s := range n.succ {
			if s.rank <= n.rank {
				return fmt.Errorf("writegraph: edge %d->%d runs against the maintained order (ranks %d, %d)", n.id, s.id, n.rank, s.rank)
			}
		}
		prev = n
	}
	if prev != wg.last {
		return fmt.Errorf("writegraph: order list's last node is not its end")
	}
	if count != wg.live {
		return fmt.Errorf("writegraph: order list holds %d of the graph's %d nodes", count, wg.live)
	}
	return nil
}

// validateEdges checks every node's successor and predecessor lists: sorted
// strictly by id, free of self-edges and gone nodes, and each edge in both
// of its endpoints' lists.  The minimal set must be strictly ascending and
// hold only live nodes.
func (wg *Graph) validateEdges() error {
	for n := wg.first; n != nil; n = n.next {
		if err := checkEdges(n, n.succ, "successor", func(s *node) []*node { return s.pred }); err != nil {
			return err
		}
		if err := checkEdges(n, n.pred, "predecessor", func(p *node) []*node { return p.succ }); err != nil {
			return err
		}
	}
	for i, n := range wg.minimal {
		if n.gone || i > 0 && n.id <= wg.minimal[i-1].id {
			return fmt.Errorf("writegraph: minimal set holds gone node %d or is not strictly ascending", n.id)
		}
	}
	return nil
}

// checkEdges checks one of n's edge lists; mirror gives the list of the
// other endpoint that must hold n.
func checkEdges(n *node, list []*node, kind string, mirror func(*node) []*node) error {
	for i, m := range list {
		switch {
		case i > 0 && m.id <= list[i-1].id:
			return fmt.Errorf("writegraph: %ss of node %d not strictly ascending", kind, n.id)
		case m == n || m.gone:
			return fmt.Errorf("writegraph: node %d has itself or gone node %d as a %s", n.id, m.id, kind)
		case !has(mirror(m), n):
			return fmt.Errorf("writegraph: node %d has %s %d, which does not list it back", n.id, kind, m.id)
		}
	}
	return nil
}

// validateObjects is the part of Validate that rebuilds, from node
// contents, what the object records and entries must say, and compares.
// Every other uninstalled writer of X precedes the one holding X's latest
// write, so that node is X's lastWriter until it is installed.
func (wg *Graph) validateObjects() error {
	if len(wg.disordered) != 0 {
		return fmt.Errorf("writegraph: %d disordered edges left unsettled", len(wg.disordered))
	}
	type record struct {
		holder, writer       *node
		writerLSN            op.SI
		readers, lastReaders []*node
	}
	want := map[op.ObjectID]*record{}
	var keys []op.ObjectID
	ops := 0
	// Nodes come in id order, so the rebuilt reader lists are sorted.
	for _, n := range wg.nodes {
		if n.gone {
			continue
		}
		ops += len(n.ops)
		if err := validateEntries(n, wg.policy); err != nil {
			return err
		}
		for _, e := range n.objs {
			if e.obj != wg.objects[e.x] {
				return fmt.Errorf("writegraph: node %d's entry for %q points at a stale record", n.id, e.x)
			}
			w := want[e.x]
			if w == nil {
				w = &record{}
				want[e.x] = w
				keys = append(keys, e.x)
			}
			if e.flags&inVars != 0 {
				if w.holder != nil {
					return fmt.Errorf("writegraph: object %q in vars of nodes %d and %d", e.x, w.holder.id, n.id)
				}
				w.holder = n
			}
			if e.flags&inReads != 0 {
				w.readers = append(w.readers, n)
			}
			if e.flags&inWrites != 0 && (w.writer == nil || e.lastw > w.writerLSN) {
				w.writer, w.writerLSN = n, e.lastw
			}
		}
	}
	if ops != wg.opCount {
		return fmt.Errorf("writegraph: nodes hold %d operations, OpCount says %d", ops, wg.opCount)
	}
	for _, n := range wg.nodes {
		if n.gone {
			continue
		}
		for _, o := range n.ops {
			for _, x := range o.ReadSet {
				w := want[x]
				if w.writer == nil || o.LSN <= w.writerLSN {
					continue
				}
				if k := len(w.lastReaders); k == 0 || w.lastReaders[k-1] != n {
					w.lastReaders = append(w.lastReaders, n)
				}
			}
		}
	}
	if len(wg.objects) != len(keys) {
		return fmt.Errorf("writegraph: %d object records, node contents name %d objects", len(wg.objects), len(keys))
	}
	for _, x := range keys {
		rec, w := wg.objects[x], want[x]
		switch {
		case rec.holder != w.holder:
			return fmt.Errorf("writegraph: %q held in vars by %s, node contents say %s", x, nodeName(rec.holder), nodeName(w.holder))
		case rec.lastWriter != w.writer:
			return fmt.Errorf("writegraph: %q last written by %s, node contents say %s", x, nodeName(rec.lastWriter), nodeName(w.writer))
		case !slices.Equal(rec.readers, w.readers):
			return fmt.Errorf("writegraph: readers of %q are %v, node contents give %v", x, nodeIDs(rec.readers), nodeIDs(w.readers))
		case !slices.Equal(rec.lastReaders, w.lastReaders):
			return fmt.Errorf("writegraph: readers of %q's last write are %v, node contents give %v", x, nodeIDs(rec.lastReaders), nodeIDs(w.lastReaders))
		}
	}
	return nil
}

// validateEntries checks n's entries against its operations: sorted
// strictly by object, Reads and Writes the unions of the operations' sets,
// Lastw the last write, vars within Writes (equal under W); and the
// operations in LSN order unless n is flagged unsorted.
func validateEntries(n *node, policy Policy) error {
	for i, e := range n.objs {
		if i > 0 && e.x <= n.objs[i-1].x {
			return fmt.Errorf("writegraph: node %d's objects not strictly ascending at %q", n.id, e.x)
		}
		if e.flags&inVars != 0 && e.flags&inWrites == 0 {
			return fmt.Errorf("writegraph: node %d has var %q not in Writes", n.id, e.x)
		}
		if policy == PolicyW && e.flags&inWrites != 0 && e.flags&inVars == 0 {
			return fmt.Errorf("writegraph: W node %d has %q in Writes but not in vars", n.id, e.x)
		}
	}
	type union struct {
		read  bool
		lastw op.SI
	}
	got := make([]union, len(n.objs))
	at := func(x op.ObjectID) *union {
		if i, found := n.search(x); found {
			return &got[i]
		}
		return nil
	}
	for i, o := range n.ops {
		if !n.unsorted && i > 0 && o.LSN <= n.ops[i-1].LSN {
			return fmt.Errorf("writegraph: node %d's operations are out of conflict order but not flagged", n.id)
		}
		for _, x := range o.ReadSet {
			u := at(x)
			if u == nil {
				return fmt.Errorf("writegraph: node %d reads %q but has no entry for it", n.id, x)
			}
			u.read = true
		}
		for _, x := range o.WriteSet {
			u := at(x)
			if u == nil {
				return fmt.Errorf("writegraph: node %d writes %q but has no entry for it", n.id, x)
			}
			u.lastw = max(u.lastw, o.LSN)
		}
	}
	for i, e := range n.objs {
		u := got[i]
		if u.read != (e.flags&inReads != 0) || (u.lastw != op.NilSI) != (e.flags&inWrites != 0) || u.lastw != e.lastw {
			return fmt.Errorf("writegraph: node %d's entry for %q disagrees with its operations", n.id, e.x)
		}
	}
	return nil
}

func nodeName(n *node) string {
	if n == nil {
		return "no node"
	}
	return fmt.Sprintf("node %d", n.id)
}

func nodeIDs(ns []*node) []graph.NodeID {
	out := make([]graph.NodeID, len(ns))
	for i, n := range ns {
		out[i] = n.id
	}
	return out
}
