// Dependency-chain partitioning: the redo stream is partitioned into
// conflict-disjoint dependency chains, and the chain scheduler (ondemand.go)
// replays independent chains concurrently.
//
// Operation B depends on operation A (earlier in the log) iff B reads or
// writes an object A wrote.  Taking the symmetric closure — connected
// components over "shares an object at least one of the two writes" — yields
// chains with the property that every operation touching a written object
// lives in the same chain as all that object's writers.  Replaying each
// chain serially in log order therefore preserves per-object replay order
// exactly, and cross-chain object sharing is read-only (objects no chain
// writes), so chains commute: the recovered state and every Result counter
// are bit-identical to a log-order replay regardless of worker count or
// scheduling.  (DESIGN.md, "Dependency-chain partitioning".)
package recovery

import (
	"runtime"

	"logicallog/internal/graph"
	"logicallog/internal/op"
)

// resolveWorkers maps the Options.RedoWorkers knob to a concrete goroutine count.
func resolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// partitionChains splits the scanned operation stream into dependency
// chains.  Two operations land in the same chain iff they are connected by
// conflicts: a writer of x merges with every earlier writer and every
// earlier reader of x (WAW, RAW, WAR), and a reader of x merges with x's
// earlier writers.  Read-read sharing does not merge.  Each chain lists its
// operations in log order; chains are ordered by their first operation.
func partitionChains(ops []*op.Operation) [][]*op.Operation {
	uf := graph.NewUnionFind(len(ops))
	// written maps an object with at least one writer so far to any member
	// of the (single) component holding all its writers; readers collects
	// reads of objects not yet written, which merge lazily if a writer
	// arrives.
	written := make(map[op.ObjectID]int)
	readers := make(map[op.ObjectID][]int)
	for i, o := range ops {
		for _, x := range o.WriteSet {
			if w, ok := written[x]; ok {
				uf.Union(i, w)
			}
			if rs := readers[x]; len(rs) > 0 {
				for _, r := range rs {
					uf.Union(i, r)
				}
				delete(readers, x)
			}
			written[x] = i
		}
		for _, x := range o.ReadSet {
			if w, ok := written[x]; ok {
				uf.Union(i, w)
			} else {
				readers[x] = append(readers[x], i)
			}
		}
	}
	chainOf := make(map[int]int)
	var chains [][]*op.Operation
	for i, o := range ops {
		root := uf.Find(i)
		ci, ok := chainOf[root]
		if !ok {
			ci = len(chains)
			chainOf[root] = ci
			chains = append(chains, nil)
		}
		chains[ci] = append(chains[ci], o)
	}
	return chains
}
