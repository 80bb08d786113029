// Package op defines the operation model of Lomet & Tuttle's logical-logging
// recovery framework (SIGMOD 1999).
//
// An operation O is characterized by the objects it reads (readset(O)), the
// objects it writes (writeset(O)), and a deterministic transformation that
// maps the read values to the written values.  The taxonomy of Table 1 of the
// paper is reproduced here as operation kinds:
//
//	Ex(A)          application execute: reads and writes A          (physiological)
//	R(A,X)         application read:    reads A,X, writes A         (logical, A-form)
//	W_P(X,v)       physical write:      writes X with logged v      (physical)
//	W_PL(X)        physiological write: reads and writes X          (physiological)
//	W_L(A,X)       logical write:       reads A, writes X           (logical, B-form)
//	W_IP(X,val(X)) CM identity write:   writes X with its own value (physical)
//
// The "A-form" and "B-form" names refer to operations A (Y <- f(X,Y)) and
// B (X <- g(Y)) of Figure 1 of the paper.
//
// Values are opaque byte slices.  Transformations are registered,
// deterministic Go functions identified by a FuncID; a logical log record
// carries only the function id, its parameters, and the read/write set object
// ids, never the data values — that is the paper's entire point.
package op

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// ObjectID names a recoverable object: a database page, a file, an
// application's volatile state, etc.  The paper's key economy is that logging
// an identifier (≤ a few dozen bytes) replaces logging the object value
// (page-sized or much larger).
type ObjectID string

// SI is a state identifier.  SIs increase monotonically across all objects;
// we use log sequence numbers as SIs throughout, as the paper suggests
// ("Frequently log sequence numbers (LSNs) are used as SIs").  The zero SI is
// reserved and never assigned to a logged operation.
type SI uint64

// NilSI is the reserved zero state identifier, used for "no SI yet".
const NilSI SI = 0

// Kind classifies an operation per Table 1 of the paper.
type Kind uint8

const (
	// KindInvalid is the zero Kind and is never valid on a real operation.
	KindInvalid Kind = iota
	// KindExecute is Ex(A): an application execution step between
	// recoverable calls; reads and writes the application state object.
	KindExecute
	// KindRead is R(A,X): an application read; reads A and X, writes A.
	KindRead
	// KindPhysicalWrite is W_P(X,v): a blind physical write of a logged
	// value; reads nothing, writes X.
	KindPhysicalWrite
	// KindPhysioWrite is W_PL(X): a physiological write; reads and writes
	// the single object X, transforming it with a logged function.
	KindPhysioWrite
	// KindLogicalWrite is W_L(A,X): a logical write; reads A, writes X,
	// logging neither value.
	KindLogicalWrite
	// KindIdentityWrite is W_IP(X,val(X)): a cache-manager-initiated
	// identity write; writes X with its current value, which is logged
	// physically.  Reads(op) is empty by construction (Section 4).
	KindIdentityWrite
	// KindLogical is a general logical operation with arbitrary read and
	// write sets, e.g. the paper's operation A: Y <- f(X,Y).
	KindLogical
	// KindDelete terminates an object's lifetime.  The paper notes that a
	// delete advances the object's rSI to the delete's lSI and removes it
	// from the object table (Section 5).
	KindDelete
	// KindCreate brings an object into existence with a logged initial
	// value; like a physical write but flagged so substrates can
	// distinguish allocation.
	KindCreate

	// NumKinds bounds the kinds: arrays indexed by Kind have this length.
	NumKinds = iota
)

var kindNames = [NumKinds]string{
	KindInvalid:       "invalid",
	KindExecute:       "Ex",
	KindRead:          "R",
	KindPhysicalWrite: "W_P",
	KindPhysioWrite:   "W_PL",
	KindLogicalWrite:  "W_L",
	KindIdentityWrite: "W_IP",
	KindLogical:       "L",
	KindDelete:        "Del",
	KindCreate:        "Cr",
}

// String returns the paper's notation for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is one of the defined operation kinds.
func (k Kind) Valid() bool {
	return k > KindInvalid && int(k) < len(kindNames)
}

// Physical reports whether operations of this kind carry their written
// values on the log (and therefore never need other objects at replay time).
func (k Kind) Physical() bool {
	switch k {
	case KindPhysicalWrite, KindIdentityWrite, KindCreate:
		return true
	}
	return false
}

// Logical reports whether operations of this kind may read recoverable
// objects other than the ones they write — the class of operations whose
// flush dependencies this paper is about.
func (k Kind) Logical() bool {
	switch k {
	case KindRead, KindLogicalWrite, KindLogical:
		return true
	}
	return false
}

// Operation is a single logged, replayable state transformation.  Operations
// are immutable once logged; the LSN is assigned by the log when the
// operation is appended (the WAL protocol) and doubles as the operation's
// state identifier (lSI).
type Operation struct {
	// LSN is the log sequence number / lSI of the operation.  NilSI until
	// the operation has been appended to the log.
	LSN SI
	// Kind classifies the operation per Table 1.
	Kind Kind
	// Func identifies the registered transformation replayed at redo time.
	// Empty for pure physical writes (value is taken from Values).
	Func FuncID
	// Params are the logged parameters of Func (e.g. the bytes an
	// application execution step consumed, a sort's comparator name, a
	// split key).  Opaque to the recovery system.
	Params []byte
	// ReadSet lists objects whose current values are inputs to Func, in a
	// canonical (sorted, de-duplicated) order.
	ReadSet []ObjectID
	// WriteSet lists the objects the operation writes, canonical order.
	WriteSet []ObjectID
	// Values carries logged data values for physical kinds (W_P, W_IP,
	// Create): the value written to WriteSet[i] is Values[i].  Nil for
	// logical and physiological kinds — again, that is the point of the
	// paper.
	Values [][]byte
	// Deletes lists objects whose lifetime this operation terminates.
	// It equals WriteSet on KindDelete and is empty on every other kind.
	Deletes []ObjectID
}

// Validate checks the structural invariants of an operation.  It does not
// require an LSN (operations are validated before logging).
func (o *Operation) Validate() error {
	if o == nil {
		return fmt.Errorf("op: nil operation")
	}
	if !o.Kind.Valid() {
		return fmt.Errorf("op: invalid kind %d", o.Kind)
	}
	if len(o.WriteSet) == 0 {
		return fmt.Errorf("op %s: empty writeset", o.Kind)
	}
	if !isCanonical(o.ReadSet) {
		return fmt.Errorf("op %s: readset not canonical: %v", o.Kind, o.ReadSet)
	}
	if !isCanonical(o.WriteSet) {
		return fmt.Errorf("op %s: writeset not canonical: %v", o.Kind, o.WriteSet)
	}
	switch o.Kind {
	case KindPhysicalWrite, KindIdentityWrite, KindCreate:
		if len(o.ReadSet) != 0 {
			return fmt.Errorf("op %s: physical kinds must have empty readset", o.Kind)
		}
		if len(o.Values) != len(o.WriteSet) {
			return fmt.Errorf("op %s: %d logged values for %d written objects", o.Kind, len(o.Values), len(o.WriteSet))
		}
	case KindPhysioWrite, KindExecute:
		if len(o.WriteSet) != 1 {
			return fmt.Errorf("op %s: physiological kinds write exactly one object", o.Kind)
		}
		if len(o.ReadSet) != 1 || o.ReadSet[0] != o.WriteSet[0] {
			return fmt.Errorf("op %s: physiological kinds read exactly the written object", o.Kind)
		}
		if o.Func == "" {
			return fmt.Errorf("op %s: missing transformation function", o.Kind)
		}
	case KindDelete:
		// Deletes carry no function and no values.
		if !slices.Equal(o.Deletes, o.WriteSet) {
			return fmt.Errorf("op %s: deletes %v differ from writeset %v", o.Kind, o.Deletes, o.WriteSet)
		}
	default:
		if o.Func == "" {
			return fmt.Errorf("op %s: missing transformation function", o.Kind)
		}
	}
	if o.Kind != KindPhysicalWrite && o.Kind != KindIdentityWrite && o.Kind != KindCreate && len(o.Values) != 0 {
		return fmt.Errorf("op %s: logical/physiological operations must not log values", o.Kind)
	}
	if o.Kind != KindDelete && len(o.Deletes) != 0 {
		return fmt.Errorf("op %s: only deletes may terminate objects", o.Kind)
	}
	return nil
}

// Reads reports whether the operation reads x.
func (o *Operation) Reads(x ObjectID) bool { return containsID(o.ReadSet, x) }

// Writes reports whether the operation writes x.
func (o *Operation) Writes(x ObjectID) bool { return containsID(o.WriteSet, x) }

// Touches reports whether the operation reads or writes x.
func (o *Operation) Touches(x ObjectID) bool { return o.Reads(x) || o.Writes(x) }

// Exp returns exp(Op) = writeset(Op) ∩ readset(Op): the objects whose updates
// depend on their own previous values and hence are unavoidably exposed
// (Table 1 of the paper).  Result is in canonical order.
func (o *Operation) Exp() []ObjectID {
	var out []ObjectID
	for _, x := range o.WriteSet {
		if containsID(o.ReadSet, x) {
			out = append(out, x)
		}
	}
	return out
}

// NotExp returns notexp(Op) = writeset(Op) − readset(Op): the objects the
// operation updates "blindly", whose previous values become unexposed once
// the operation is logged (Table 1).  Result is in canonical order.
func (o *Operation) NotExp() []ObjectID {
	var out []ObjectID
	for _, x := range o.WriteSet {
		if !containsID(o.ReadSet, x) {
			out = append(out, x)
		}
	}
	return out
}

// ConflictsWith reports whether o and p conflict: one touches an object the
// other writes.  The stable log is kept in conflict order; with a single
// append-only log, LSN order is a legal conflict order.
func (o *Operation) ConflictsWith(p *Operation) bool {
	for _, x := range o.WriteSet {
		if p.Touches(x) {
			return true
		}
	}
	for _, x := range p.WriteSet {
		if o.Touches(x) {
			return true
		}
	}
	return false
}

// String renders the operation in the paper's notation, e.g.
// "A@17 L f(Y; X,Y)" for Y <- f(X,Y) logged at LSN 17.
func (o *Operation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%d %s(", o.Kind, o.LSN, funcOrKind(o))
	b.WriteString(joinIDs(o.WriteSet))
	if len(o.ReadSet) > 0 {
		b.WriteString("; ")
		b.WriteString(joinIDs(o.ReadSet))
	}
	b.WriteString(")")
	return b.String()
}

func funcOrKind(o *Operation) string {
	if o.Func != "" {
		return string(o.Func)
	}
	return o.Kind.String()
}

func joinIDs(ids []ObjectID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return strings.Join(parts, ",")
}

// Clone returns a deep copy of the operation.  Recovery replays operate on
// clones so the in-memory history is never aliased with engine state.
func (o *Operation) Clone() *Operation {
	c := &Operation{
		LSN:    o.LSN,
		Kind:   o.Kind,
		Func:   o.Func,
		Params: append([]byte(nil), o.Params...),
	}
	c.ReadSet = append([]ObjectID(nil), o.ReadSet...)
	c.WriteSet = append([]ObjectID(nil), o.WriteSet...)
	c.Deletes = append([]ObjectID(nil), o.Deletes...)
	if o.Values != nil {
		c.Values = make([][]byte, len(o.Values))
		for i, v := range o.Values {
			c.Values[i] = append([]byte(nil), v...)
		}
	}
	return c
}

// Canonicalize sorts and de-duplicates ids in place and returns the result.
func Canonicalize(ids []ObjectID) []ObjectID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:0]
	var prev ObjectID
	for i, id := range ids {
		if i == 0 || id != prev {
			out = append(out, id)
		}
		prev = id
	}
	return out
}

func isCanonical(ids []ObjectID) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

func containsID(ids []ObjectID, x ObjectID) bool {
	_, ok := indexOf(ids, x)
	return ok
}

// indexOf returns x's position in the canonical (sorted) set ids.
func indexOf(ids []ObjectID, x ObjectID) (int, bool) {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(ids) && ids[lo] == x
}
