package btree

import (
	"encoding/binary"
	"fmt"

	"logicallog/internal/core"
	"logicallog/internal/op"
)

// Function ids registered by Register.
const (
	// FuncInsertLeaf is the physiological leaf insert: page <- page+{k,v}.
	FuncInsertLeaf op.FuncID = "btree.insertleaf"
	// FuncDeleteLeaf is the physiological leaf delete.
	FuncDeleteLeaf op.FuncID = "btree.deleteleaf"
	// FuncSplitChild is the logical split: reads {parent, child}, writes
	// {parent, child, newChild}.  Only page ids are logged.
	FuncSplitChild op.FuncID = "btree.splitchild"
	// FuncSplitRoot is the logical root split: reads {meta, root}, writes
	// {meta, root, newChild, newRoot}.
	FuncSplitRoot op.FuncID = "btree.splitroot"
	// FuncMergeChild is the logical merge: reads {parent, left, right},
	// writes {parent, left}.  The right page is absorbed into the left and
	// the separator dropped from the parent; the driver deletes the orphaned
	// right page afterwards.
	FuncMergeChild op.FuncID = "btree.mergechild"
	// FuncRebalance is the logical borrow: reads and writes
	// {parent, left, right}, moving one entry between adjacent siblings and
	// updating the parent separator.
	FuncRebalance op.FuncID = "btree.rebalance"
	// FuncCollapseRoot is the logical height decrease: reads {meta, root},
	// writes {meta}, pointing the tree at the root's sole child.  The driver
	// deletes the orphaned old root afterwards.
	FuncCollapseRoot op.FuncID = "btree.collapseroot"
)

// Rebalance directions carried in FuncRebalance params.
const (
	borrowLeft  byte = 'L' // left sibling donates its last entry to right
	borrowRight byte = 'R' // right sibling donates its first entry to left
)

// Register installs the B+tree transformations on a registry.
func Register(reg *op.Registry) {
	reg.Register(FuncInsertLeaf, fnInsertLeaf)
	reg.Register(FuncDeleteLeaf, fnDeleteLeaf)
	reg.Register(FuncSplitChild, fnSplitChild)
	reg.Register(FuncSplitRoot, fnSplitRoot)
	reg.Register(FuncMergeChild, fnMergeChild)
	reg.Register(FuncRebalance, fnRebalance)
	reg.Register(FuncCollapseRoot, fnCollapseRoot)
}

// meta is the tree's metadata object.
type meta struct {
	root   op.ObjectID
	next   uint64 // next page number to allocate
	height uint64
	order  uint64 // max keys per page before split
}

func encodeMeta(m *meta) []byte {
	var next, height, order [8]byte
	binary.BigEndian.PutUint64(next[:], m.next)
	binary.BigEndian.PutUint64(height[:], m.height)
	binary.BigEndian.PutUint64(order[:], m.order)
	return op.EncodeParams([]byte(m.root), next[:], height[:], order[:])
}

func decodeMeta(v []byte) (*meta, error) {
	fields, err := op.DecodeParams(v)
	if err != nil || len(fields) != 4 || len(fields[1]) != 8 || len(fields[2]) != 8 || len(fields[3]) != 8 {
		return nil, fmt.Errorf("btree: corrupt meta: %v", err)
	}
	return &meta{
		root:   op.ObjectID(fields[0]),
		next:   binary.BigEndian.Uint64(fields[1]),
		height: binary.BigEndian.Uint64(fields[2]),
		order:  binary.BigEndian.Uint64(fields[3]),
	}, nil
}

// --- registered transformations --------------------------------------------

// fnInsertLeaf params: EncodeParams(key, val).
func fnInsertLeaf(params []byte, a *op.Args) error {
	fields, err := op.DecodeParams(params)
	if err != nil || len(fields) != 2 {
		return fmt.Errorf("btree: insertleaf wants (key, val)")
	}
	id, raw := a.Sole()
	p, err := decodePage(raw)
	if err != nil {
		return err
	}
	if p.kind != leafPage {
		return fmt.Errorf("btree: insertleaf on non-leaf %q", id)
	}
	p.insertLeaf(fields[0], fields[1])
	a.Write(id, encodePage(p))
	return nil
}

// fnDeleteLeaf params: EncodeParams(key).
func fnDeleteLeaf(params []byte, a *op.Args) error {
	fields, err := op.DecodeParams(params)
	if err != nil || len(fields) != 1 {
		return fmt.Errorf("btree: deleteleaf wants (key)")
	}
	id, raw := a.Sole()
	p, err := decodePage(raw)
	if err != nil {
		return err
	}
	if p.kind != leafPage {
		return fmt.Errorf("btree: deleteleaf on non-leaf %q", id)
	}
	p.deleteLeaf(fields[0])
	a.Write(id, encodePage(p))
	return nil
}

// fnSplitChild params: EncodeParams(parentID, childID, newChildID).
// Reads parent and child; writes parent, child, newChild.  The new child's
// contents come entirely from the old child — nothing but ids on the log.
// Splitting a leaf threads the chain: the new right leaf inherits the old
// next pointer and the split leaf points at the new one.
func fnSplitChild(params []byte, a *op.Args) error {
	fields, err := op.DecodeParams(params)
	if err != nil || len(fields) != 3 {
		return fmt.Errorf("btree: splitchild wants (parent, child, newChild)")
	}
	parentID, childID, newID := op.ObjectID(fields[0]), op.ObjectID(fields[1]), op.ObjectID(fields[2])
	parent, err := decodePage(a.Read(parentID))
	if err != nil {
		return err
	}
	child, err := decodePage(a.Read(childID))
	if err != nil {
		return err
	}
	if parent.kind != internalPage {
		return fmt.Errorf("btree: splitchild parent %q is not internal", parentID)
	}
	right, sep := child.splitRight()
	if child.kind == leafPage {
		right.next = child.next
		child.next = newID
	}
	if err := parent.insertChild(sep, childID, newID); err != nil {
		return err
	}
	a.Write(parentID, encodePage(parent))
	a.Write(childID, encodePage(child))
	a.Write(newID, encodePage(right))
	return nil
}

// fnSplitRoot params: EncodeParams(metaID, rootID, newChildID, newRootID).
// Reads meta and the old root; writes meta, old root, new child, new root.
func fnSplitRoot(params []byte, a *op.Args) error {
	fields, err := op.DecodeParams(params)
	if err != nil || len(fields) != 4 {
		return fmt.Errorf("btree: splitroot wants (meta, root, newChild, newRoot)")
	}
	metaID, rootID := op.ObjectID(fields[0]), op.ObjectID(fields[1])
	newChildID, newRootID := op.ObjectID(fields[2]), op.ObjectID(fields[3])
	m, err := decodeMeta(a.Read(metaID))
	if err != nil {
		return err
	}
	root, err := decodePage(a.Read(rootID))
	if err != nil {
		return err
	}
	right, sep := root.splitRight()
	if root.kind == leafPage {
		right.next = root.next
		root.next = newChildID
	}
	newRoot := &page{
		kind:     internalPage,
		keys:     [][]byte{sep},
		children: []op.ObjectID{rootID, newChildID},
	}
	m.root = newRootID
	m.height++
	a.Write(metaID, encodeMeta(m))
	a.Write(rootID, encodePage(root))
	a.Write(newChildID, encodePage(right))
	a.Write(newRootID, encodePage(newRoot))
	return nil
}

// fnMergeChild params: EncodeParams(parentID, leftID, rightID).
// Reads all three pages; writes parent and left.  The right sibling is
// absorbed into the left (separator pulled down for internal pages, leaf
// chain re-threaded for leaves) and becomes an orphan the driver deletes.
func fnMergeChild(params []byte, a *op.Args) error {
	fields, err := op.DecodeParams(params)
	if err != nil || len(fields) != 3 {
		return fmt.Errorf("btree: mergechild wants (parent, left, right)")
	}
	parentID, leftID, rightID := op.ObjectID(fields[0]), op.ObjectID(fields[1]), op.ObjectID(fields[2])
	parent, left, right, slot, err := siblingPages(a, parentID, leftID, rightID)
	if err != nil {
		return err
	}
	parent.mergeRight(slot, left, right)
	a.Write(parentID, encodePage(parent))
	a.Write(leftID, encodePage(left))
	return nil
}

// fnRebalance params: EncodeParams(parentID, leftID, rightID, [dir]).
// Reads and writes all three pages.  dir selects the donor: borrowLeft
// moves the left sibling's last entry right, borrowRight moves the right
// sibling's first entry left; the parent separator follows.
func fnRebalance(params []byte, a *op.Args) error {
	fields, err := op.DecodeParams(params)
	if err != nil || len(fields) != 4 || len(fields[3]) != 1 {
		return fmt.Errorf("btree: rebalance wants (parent, left, right, dir)")
	}
	parentID, leftID, rightID := op.ObjectID(fields[0]), op.ObjectID(fields[1]), op.ObjectID(fields[2])
	parent, left, right, slot, err := siblingPages(a, parentID, leftID, rightID)
	if err != nil {
		return err
	}
	switch fields[3][0] {
	case borrowLeft:
		if len(left.keys) == 0 {
			return fmt.Errorf("btree: rebalance from empty left %q", leftID)
		}
		parent.borrowFromLeft(slot, left, right)
	case borrowRight:
		if len(right.keys) < 2 {
			return fmt.Errorf("btree: rebalance would empty right %q", rightID)
		}
		parent.borrowFromRight(slot, left, right)
	default:
		return fmt.Errorf("btree: rebalance direction %q", fields[3])
	}
	a.Write(parentID, encodePage(parent))
	a.Write(leftID, encodePage(left))
	a.Write(rightID, encodePage(right))
	return nil
}

// fnCollapseRoot params: EncodeParams(metaID, rootID).
// Reads the meta and the keyless internal root; writes only the meta, which
// now points at the root's sole child.  The driver deletes the old root.
func fnCollapseRoot(params []byte, a *op.Args) error {
	fields, err := op.DecodeParams(params)
	if err != nil || len(fields) != 2 {
		return fmt.Errorf("btree: collapseroot wants (meta, root)")
	}
	metaID, rootID := op.ObjectID(fields[0]), op.ObjectID(fields[1])
	m, err := decodeMeta(a.Read(metaID))
	if err != nil {
		return err
	}
	root, err := decodePage(a.Read(rootID))
	if err != nil {
		return err
	}
	if root.kind != internalPage || len(root.keys) != 0 || len(root.children) != 1 {
		return fmt.Errorf("btree: collapseroot on non-collapsible root %q", rootID)
	}
	m.root = root.children[0]
	m.height--
	a.Write(metaID, encodeMeta(m))
	return nil
}

// siblingPages decodes a parent and two adjacent siblings out of a read set
// and locates the left sibling's slot.
func siblingPages(a *op.Args, parentID, leftID, rightID op.ObjectID) (parent, left, right *page, slot int, err error) {
	if parent, err = decodePage(a.Read(parentID)); err != nil {
		return nil, nil, nil, 0, err
	}
	if left, err = decodePage(a.Read(leftID)); err != nil {
		return nil, nil, nil, 0, err
	}
	if right, err = decodePage(a.Read(rightID)); err != nil {
		return nil, nil, nil, 0, err
	}
	if parent.kind != internalPage {
		return nil, nil, nil, 0, fmt.Errorf("btree: parent %q is not internal", parentID)
	}
	if left.kind != right.kind {
		return nil, nil, nil, 0, fmt.Errorf("btree: sibling kinds differ (%q, %q)", leftID, rightID)
	}
	slot = parent.childSlot(leftID)
	if slot < 0 || slot+1 >= len(parent.children) || parent.children[slot+1] != rightID {
		return nil, nil, nil, 0, fmt.Errorf("btree: %q and %q are not adjacent under %q", leftID, rightID, parentID)
	}
	return parent, left, right, slot, nil
}

// --- tree driver ------------------------------------------------------------

// Tree is a recoverable leaf-linked B+tree over an engine.
type Tree struct {
	eng  *core.Engine
	name string
}

// New creates a tree with the given name and order (max keys per page; must
// be >= 2).  Page allocation is recorded in the tree's meta object, so page
// ids replay deterministically.
func New(eng *core.Engine, name string, order int) (*Tree, error) {
	if order < 2 {
		return nil, fmt.Errorf("btree: order %d < 2", order)
	}
	t := &Tree{eng: eng, name: name}
	rootID := t.pageID(0)
	m := &meta{root: rootID, next: 1, height: 1, order: uint64(order)}
	if err := eng.Execute(op.NewCreate(t.metaID(), encodeMeta(m))); err != nil {
		return nil, err
	}
	if err := eng.Execute(op.NewCreate(rootID, encodePage(&page{kind: leafPage}))); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to an existing tree (e.g. after recovery).
func Open(eng *core.Engine, name string) (*Tree, error) {
	t := &Tree{eng: eng, name: name}
	if _, err := t.meta(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Tree) metaID() op.ObjectID { return op.ObjectID("bt/" + t.name + "/meta") }
func (t *Tree) pageID(n uint64) op.ObjectID {
	return op.ObjectID(fmt.Sprintf("bt/%s/p%08d", t.name, n))
}

func (t *Tree) meta() (*meta, error) {
	raw, err := t.eng.Get(t.metaID())
	if err != nil {
		return nil, fmt.Errorf("btree: tree %q: %w", t.name, err)
	}
	return decodeMeta(raw)
}

func (t *Tree) readPage(id op.ObjectID) (*page, error) {
	raw, err := t.eng.Get(id)
	if err != nil {
		return nil, err
	}
	return decodePage(raw)
}

// allocPage reserves the next page number via a physiological meta update.
// The allocation itself is logged as a physical write of the (small) meta
// object, keeping replay deterministic.
func (t *Tree) allocPage(m *meta) (op.ObjectID, error) {
	id := t.pageID(m.next)
	m.next++
	if err := t.eng.Execute(op.NewPhysicalWrite(t.metaID(), encodeMeta(m))); err != nil {
		return "", err
	}
	return id, nil
}

// Insert adds or replaces key -> val.
func (t *Tree) Insert(key, val []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("btree: empty key")
	}
	m, err := t.meta()
	if err != nil {
		return err
	}
	// Preemptive split of a full root.
	root, err := t.readPage(m.root)
	if err != nil {
		return err
	}
	if len(root.keys) >= int(m.order) {
		newChild, err := t.allocPage(m)
		if err != nil {
			return err
		}
		newRoot, err := t.allocPage(m)
		if err != nil {
			return err
		}
		oldRoot := m.root
		params := op.EncodeParams([]byte(t.metaID()), []byte(oldRoot), []byte(newChild), []byte(newRoot))
		split := op.NewLogical(FuncSplitRoot, params,
			[]op.ObjectID{t.metaID(), oldRoot},
			[]op.ObjectID{t.metaID(), oldRoot, newChild, newRoot})
		if err := t.eng.Execute(split); err != nil {
			return err
		}
		m, err = t.meta()
		if err != nil {
			return err
		}
	}

	// Descend, splitting any full child before entering it.
	cur := m.root
	for {
		p, err := t.readPage(cur)
		if err != nil {
			return err
		}
		if p.kind == leafPage {
			params := op.EncodeParams(key, val)
			return t.eng.Execute(op.NewPhysioWrite(cur, FuncInsertLeaf, params))
		}
		childID := p.children[p.childIndex(key)]
		child, err := t.readPage(childID)
		if err != nil {
			return err
		}
		if len(child.keys) >= int(m.order) {
			newID, err := t.allocPage(m)
			if err != nil {
				return err
			}
			params := op.EncodeParams([]byte(cur), []byte(childID), []byte(newID))
			split := op.NewLogical(FuncSplitChild, params,
				[]op.ObjectID{cur, childID},
				[]op.ObjectID{cur, childID, newID})
			if err := t.eng.Execute(split); err != nil {
				return err
			}
			// Re-read the parent to pick the correct half.
			p, err = t.readPage(cur)
			if err != nil {
				return err
			}
			childID = p.children[p.childIndex(key)]
		}
		cur = childID
	}
}

// Put is Insert under the name the workload Domain interface expects.
func (t *Tree) Put(key, val []byte) error { return t.Insert(key, val) }

// Get returns the value for key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	m, err := t.meta()
	if err != nil {
		return nil, false, err
	}
	cur := m.root
	for {
		p, err := t.readPage(cur)
		if err != nil {
			return nil, false, err
		}
		if p.kind == leafPage {
			i, found := findKey(p.keys, key)
			if !found {
				return nil, false, nil
			}
			return p.vals[i], true, nil
		}
		cur = p.children[p.childIndex(key)]
	}
}

// minKeys is the underflow threshold: a non-root page visited by Delete is
// topped up (borrow or merge) when it would drop to this many keys.
func minKeys(order uint64) int {
	mk := int(order-1) / 2
	if mk < 1 {
		mk = 1
	}
	return mk
}

// Delete removes key; it reports whether the key was present.  The descent
// is preemptive: any child about to be entered with minKeys keys or fewer
// is first topped up by a logical rebalance (borrow from a richer sibling)
// or merge (absorb a sibling at minimum), so the leaf delete itself can
// never underflow a page below the merge threshold.
func (t *Tree) Delete(key []byte) (bool, error) {
	_, found, err := t.Get(key)
	if err != nil || !found {
		return false, err
	}
	m, err := t.meta()
	if err != nil {
		return false, err
	}
	mk := minKeys(m.order)
	cur := m.root
	for {
		p, err := t.readPage(cur)
		if err != nil {
			return false, err
		}
		if p.kind == leafPage {
			return true, t.eng.Execute(op.NewPhysioWrite(cur, FuncDeleteLeaf, op.EncodeParams(key)))
		}
		slot := p.childIndex(key)
		childID := p.children[slot]
		child, err := t.readPage(childID)
		if err != nil {
			return false, err
		}
		if len(child.keys) <= mk {
			if err := t.fixChild(p, cur, slot, mk); err != nil {
				return false, err
			}
			// The fix rewrote the parent (and may have emptied a root);
			// re-resolve the descent from the tree meta.
			m, err = t.meta()
			if err != nil {
				return false, err
			}
			if cur == m.root {
				if err := t.maybeCollapseRoot(m); err != nil {
					return false, err
				}
				m, err = t.meta()
				if err != nil {
					return false, err
				}
				cur = m.root
				continue
			}
			p, err = t.readPage(cur)
			if err != nil {
				return false, err
			}
			slot = p.childIndex(key)
			childID = p.children[slot]
		}
		cur = childID
	}
}

// fixChild tops up parent.children[slot] (which holds <= mk keys) by
// borrowing from a sibling with spare keys, or merging with a sibling at
// the minimum.  Merges orphan the absorbed page; the driver deletes it in
// the same mutation stream, mirroring how a real system returns the page to
// a free list.
func (t *Tree) fixChild(parent *page, parentID op.ObjectID, slot int, mk int) error {
	childID := parent.children[slot]
	var leftID, rightID op.ObjectID
	var left, right *page
	var err error
	if slot > 0 {
		leftID = parent.children[slot-1]
		if left, err = t.readPage(leftID); err != nil {
			return err
		}
	}
	if slot+1 < len(parent.children) {
		rightID = parent.children[slot+1]
		if right, err = t.readPage(rightID); err != nil {
			return err
		}
	}
	switch {
	case left != nil && len(left.keys) > mk:
		// Borrow the left sibling's last entry: (left, child) pair, dir L.
		params := op.EncodeParams([]byte(parentID), []byte(leftID), []byte(childID), []byte{borrowLeft})
		reb := op.NewLogical(FuncRebalance, params,
			[]op.ObjectID{parentID, leftID, childID},
			[]op.ObjectID{parentID, leftID, childID})
		return t.eng.Execute(reb)
	case right != nil && len(right.keys) > mk:
		// Borrow the right sibling's first entry: (child, right) pair, dir R.
		params := op.EncodeParams([]byte(parentID), []byte(childID), []byte(rightID), []byte{borrowRight})
		reb := op.NewLogical(FuncRebalance, params,
			[]op.ObjectID{parentID, childID, rightID},
			[]op.ObjectID{parentID, childID, rightID})
		return t.eng.Execute(reb)
	case left != nil:
		return t.mergePair(parentID, leftID, childID)
	case right != nil:
		return t.mergePair(parentID, childID, rightID)
	default:
		return fmt.Errorf("btree: %q slot %d has no siblings", parentID, slot)
	}
}

// mergePair merges right into left under parent and deletes the orphan.
func (t *Tree) mergePair(parentID, leftID, rightID op.ObjectID) error {
	params := op.EncodeParams([]byte(parentID), []byte(leftID), []byte(rightID))
	merge := op.NewLogical(FuncMergeChild, params,
		[]op.ObjectID{parentID, leftID, rightID},
		[]op.ObjectID{parentID, leftID})
	if err := t.eng.Execute(merge); err != nil {
		return err
	}
	return t.eng.Execute(op.NewDelete(rightID))
}

// maybeCollapseRoot drops an empty internal root (post-merge) and deletes
// the orphaned page.
func (t *Tree) maybeCollapseRoot(m *meta) error {
	root, err := t.readPage(m.root)
	if err != nil {
		return err
	}
	if root.kind != internalPage || len(root.keys) != 0 {
		return nil
	}
	oldRoot := m.root
	params := op.EncodeParams([]byte(t.metaID()), []byte(oldRoot))
	collapse := op.NewLogical(FuncCollapseRoot, params,
		[]op.ObjectID{t.metaID(), oldRoot},
		[]op.ObjectID{t.metaID()})
	if err := t.eng.Execute(collapse); err != nil {
		return err
	}
	return t.eng.Execute(op.NewDelete(oldRoot))
}

// leftmostLeaf descends the first-child spine to the head of the leaf chain.
func (t *Tree) leftmostLeaf() (op.ObjectID, error) {
	m, err := t.meta()
	if err != nil {
		return "", err
	}
	cur := m.root
	for {
		p, err := t.readPage(cur)
		if err != nil {
			return "", err
		}
		if p.kind == leafPage {
			return cur, nil
		}
		cur = p.children[0]
	}
}

// leafFor descends to the leaf whose key range covers key.
func (t *Tree) leafFor(key []byte) (op.ObjectID, error) {
	m, err := t.meta()
	if err != nil {
		return "", err
	}
	cur := m.root
	for {
		p, err := t.readPage(cur)
		if err != nil {
			return "", err
		}
		if p.kind == leafPage {
			return cur, nil
		}
		cur = p.children[p.childIndex(key)]
	}
}

// Scan visits all key/value pairs in order by walking the leaf chain; fn
// returns false to stop.
func (t *Tree) Scan(fn func(key, val []byte) bool) error {
	return t.Range(nil, nil, fn)
}

// Range visits key/value pairs with lo <= key < hi in order, walking the
// leaf chain from the leaf covering lo.  A nil lo starts at the first key; a
// nil hi runs to the end.  fn returns false to stop early.
func (t *Tree) Range(lo, hi []byte, fn func(key, val []byte) bool) error {
	var cur op.ObjectID
	var err error
	if lo == nil {
		cur, err = t.leftmostLeaf()
	} else {
		cur, err = t.leafFor(lo)
	}
	if err != nil {
		return err
	}
	for cur != "" {
		p, err := t.readPage(cur)
		if err != nil {
			return err
		}
		if p.kind != leafPage {
			return fmt.Errorf("btree: leaf chain reached non-leaf %q", cur)
		}
		start := 0
		if lo != nil {
			start, _ = findKey(p.keys, lo)
		}
		for i := start; i < len(p.keys); i++ {
			if hi != nil && cmp(p.keys[i], hi) >= 0 {
				return nil
			}
			if !fn(p.keys[i], p.vals[i]) {
				return nil
			}
		}
		lo = nil // only the first leaf needs the lower-bound seek
		cur = p.next
	}
	return nil
}

// Stats reports the tree shape.
type Stats struct {
	Height    int
	Pages     int
	Keys      int
	LeafPages int
}

// Stats walks the tree and returns shape statistics.
func (t *Tree) Stats() (Stats, error) {
	m, err := t.meta()
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Height: int(m.height)}
	err = t.walk(m.root, func(p *page) {
		st.Pages++
		if p.kind == leafPage {
			st.LeafPages++
			st.Keys += len(p.keys)
		}
	})
	return st, err
}

func (t *Tree) walk(id op.ObjectID, fn func(*page)) error {
	p, err := t.readPage(id)
	if err != nil {
		return err
	}
	fn(p)
	if p.kind == internalPage {
		for _, c := range p.children {
			if err := t.walk(c, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// Check verifies the structural invariants: key order within pages, key
// ranges bounded by parent separators, uniform leaf depth, child counts,
// and the leaf chain (next pointers link the leaves exactly in left-to-right
// order, terminating with an empty pointer at the rightmost leaf).
func (t *Tree) Check() error {
	m, err := t.meta()
	if err != nil {
		return err
	}
	leafDepth := -1
	var leaves []op.ObjectID // left-to-right structural order
	var chain []op.ObjectID  // as linked via next pointers
	var check func(id op.ObjectID, lo, hi []byte, depth int) error
	check = func(id op.ObjectID, lo, hi []byte, depth int) error {
		p, err := t.readPage(id)
		if err != nil {
			return err
		}
		for i := 1; i < len(p.keys); i++ {
			if cmp(p.keys[i-1], p.keys[i]) >= 0 {
				return fmt.Errorf("btree: %q keys out of order", id)
			}
		}
		for _, k := range p.keys {
			if lo != nil && cmp(k, lo) < 0 {
				return fmt.Errorf("btree: %q key below lower bound", id)
			}
			if hi != nil && cmp(k, hi) >= 0 {
				return fmt.Errorf("btree: %q key above upper bound", id)
			}
		}
		if p.kind == leafPage {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("btree: leaves at depths %d and %d", leafDepth, depth)
			}
			leaves = append(leaves, id)
			chain = append(chain, p.next)
			return nil
		}
		if len(p.children) != len(p.keys)+1 {
			return fmt.Errorf("btree: %q has %d children for %d keys", id, len(p.children), len(p.keys))
		}
		for i, c := range p.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = p.keys[i-1]
			}
			if i < len(p.keys) {
				chi = p.keys[i]
			}
			if err := check(c, clo, chi, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check(m.root, nil, nil, 1); err != nil {
		return err
	}
	if leafDepth != -1 && leafDepth != int(m.height) {
		return fmt.Errorf("btree: meta height %d but leaves at depth %d", m.height, leafDepth)
	}
	for i, next := range chain {
		want := op.ObjectID("")
		if i+1 < len(leaves) {
			want = leaves[i+1]
		}
		if next != want {
			return fmt.Errorf("btree: leaf %q next pointer %q, want %q", leaves[i], next, want)
		}
	}
	return nil
}

func cmp(a, b []byte) int {
	switch {
	case string(a) < string(b):
		return -1
	case string(a) > string(b):
		return 1
	}
	return 0
}
