package graph

// UnionFind is a disjoint-set forest over the dense indices 0..n-1 with path
// halving.  A set's root is its smallest member, so representatives, and any
// numbering derived from them, are deterministic.  It backs the
// transitive-closure collapse of Figure 3 and the partition of the redo
// stream into dependency chains.
type UnionFind struct {
	parent []int
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &UnionFind{parent: p}
}

// Find returns the root of i's set: its smallest member.
func (u *UnionFind) Find(i int) int {
	for u.parent[i] != i {
		u.parent[i] = u.parent[u.parent[i]]
		i = u.parent[i]
	}
	return i
}

// Union merges the sets of a and b.
func (u *UnionFind) Union(a, b int) {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
}
