package op

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// FuncID identifies a registered, deterministic transformation function.
// FuncIDs are stable names recorded on the log; at replay time the recovery
// process looks the function up and re-executes it against the recovering
// state, which is how a logical operation regenerates values that were never
// logged.
type FuncID string

// TransformFunc is a deterministic transformation.  It receives the logged
// parameters and the current values of the operation's readset and must
// return the new values for the operation's writeset.  It must be a pure
// function of (params, reads) — replay correctness depends on it.
//
// The inputs are borrowed, not copied: params may alias the log, and each
// read value is the cache's own slice, capped at its length so an append
// reallocates instead of writing into another value's spare capacity.  Both
// are read-only.  The returned values become cached state, so they must be
// freshly allocated, never the input slices themselves.
type TransformFunc func(params []byte, reads map[ObjectID][]byte) (map[ObjectID][]byte, error)

// ErrUnknownFunc reports an operation whose FuncID no registered function
// answers to.  Unlike a transform failing against inapplicable state, it
// is a configuration error — the registry lacks a domain — so recovery
// fails on it instead of voiding the operation.
var ErrUnknownFunc = errors.New("op: unknown FuncID")

// Registry maps FuncIDs to transformation functions.  A Registry is safe for
// concurrent use.  Engines share one Registry between normal execution and
// recovery so that logged FuncIDs resolve identically in both.
type Registry struct {
	mu    sync.RWMutex
	funcs map[FuncID]TransformFunc
}

// NewRegistry returns a registry pre-populated with the builtin functions
// (see builtins.go): identity, const, copy, concat, sort, xor, append,
// counter, and the record-level helpers used by the substrates.
func NewRegistry() *Registry {
	r := &Registry{funcs: make(map[FuncID]TransformFunc)}
	registerBuiltins(r)
	return r
}

// Register installs fn under id.  It is an error to register the same id
// twice with a different function; re-registration panics to surface wiring
// bugs early (registration happens at init time, not on data paths).
func (r *Registry) Register(id FuncID, fn TransformFunc) {
	if id == "" {
		panic("op: empty FuncID")
	}
	if fn == nil {
		panic(fmt.Sprintf("op: nil TransformFunc for %q", id))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.funcs[id]; dup {
		panic(fmt.Sprintf("op: duplicate registration of FuncID %q", id))
	}
	r.funcs[id] = fn
}

// Lookup returns the function registered under id.
func (r *Registry) Lookup(id FuncID) (TransformFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.funcs[id]
	return fn, ok
}

// IDs returns the sorted list of registered FuncIDs.
func (r *Registry) IDs() []FuncID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]FuncID, 0, len(r.funcs))
	for id := range r.funcs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Apply executes operation o against the supplied read values and returns
// the values o writes.  For physical kinds the logged values are returned
// directly.  For deletes, every written object maps to nil (terminated).
//
// Apply enforces the operation contract: the function may only read objects
// in readset(o) (others are simply absent from reads) and the returned map
// must write exactly writeset(o).  A violation is reported as an error; the
// recovery process uses this to "void" trial executions (Section 5 of the
// paper: a re-execution that attempts to update more than the original
// writeset is detected and terminated).
func (r *Registry) Apply(o *Operation, reads map[ObjectID][]byte) (map[ObjectID][]byte, error) {
	switch o.Kind {
	case KindPhysicalWrite, KindIdentityWrite, KindCreate:
		out := make(map[ObjectID][]byte, len(o.WriteSet))
		for _, x := range o.WriteSet {
			v, ok := o.Values[x]
			if !ok {
				return nil, fmt.Errorf("op: %s lacks logged value for %q", o, x)
			}
			out[x] = append([]byte(nil), v...)
		}
		return out, nil
	case KindDelete:
		out := make(map[ObjectID][]byte, len(o.WriteSet))
		for _, x := range o.WriteSet {
			out[x] = nil
		}
		return out, nil
	}
	fn, ok := r.Lookup(o.Func)
	if !ok {
		return nil, fmt.Errorf("%w %q in %s", ErrUnknownFunc, o.Func, o)
	}
	in := make(map[ObjectID][]byte, len(o.ReadSet))
	for _, x := range o.ReadSet {
		v, ok := reads[x]
		if !ok {
			return nil, fmt.Errorf("op: missing read value for %q in %s", x, o)
		}
		in[x] = v
	}
	out, err := fn(o.Params, in)
	if err != nil {
		return nil, fmt.Errorf("op: %s: %w", o, err)
	}
	if len(out) != len(o.WriteSet) {
		return nil, &WritesetViolationError{Op: o, Got: keysOf(out)}
	}
	for x := range out {
		if !o.Writes(x) {
			return nil, &WritesetViolationError{Op: o, Got: keysOf(out)}
		}
	}
	return out, nil
}

// WritesetViolationError reports a transformation that attempted to update
// objects outside the operation's logged writeset.  During recovery's trial
// execution this voids the redo (Section 5, case 2b).
type WritesetViolationError struct {
	Op  *Operation
	Got []ObjectID
}

func (e *WritesetViolationError) Error() string {
	return fmt.Sprintf("op: %s wrote %v, outside writeset %v", e.Op, e.Got, e.Op.WriteSet)
}

func keysOf(m map[ObjectID][]byte) []ObjectID {
	ids := make([]ObjectID, 0, len(m))
	for k := range m {
		ids = append(ids, k)
	}
	return Canonicalize(ids)
}

// ---------------------------------------------------------------------------
// Constructors for the Table 1 taxonomy.
// ---------------------------------------------------------------------------

// NewLogical builds a general logical operation: writeSet <- fn(readSet),
// e.g. the paper's operation A (Y <- f(X,Y)) or B (X <- g(Y)).
func NewLogical(fn FuncID, params []byte, readSet, writeSet []ObjectID) *Operation {
	return &Operation{
		Kind:     KindLogical,
		Func:     fn,
		Params:   params,
		ReadSet:  Canonicalize(append([]ObjectID(nil), readSet...)),
		WriteSet: Canonicalize(append([]ObjectID(nil), writeSet...)),
	}
}

// NewExecute builds Ex(A): one application execution step, a physiological
// operation on the application-state object A.
func NewExecute(app ObjectID, fn FuncID, params []byte) *Operation {
	return &Operation{
		Kind:     KindExecute,
		Func:     fn,
		Params:   params,
		ReadSet:  []ObjectID{app},
		WriteSet: []ObjectID{app},
	}
}

// NewAppRead builds R(A,X): application A reads object X into its input
// buffer, transforming A.  Logical: neither X's value nor A's new state is
// logged.
func NewAppRead(app, x ObjectID, fn FuncID, params []byte) *Operation {
	return &Operation{
		Kind:     KindRead,
		Func:     fn,
		Params:   params,
		ReadSet:  Canonicalize([]ObjectID{app, x}),
		WriteSet: []ObjectID{app},
	}
}

// NewLogicalWrite builds W_L(A,X): application A writes object X from its
// output buffer.  Logical: X's new value is read from A at replay time, so it
// is not logged.  This is the operation class [7] had to forbid and that this
// paper's rW/identity-write machinery makes affordable.
func NewLogicalWrite(app, x ObjectID, fn FuncID, params []byte) *Operation {
	return &Operation{
		Kind:     KindLogicalWrite,
		Func:     fn,
		Params:   params,
		ReadSet:  []ObjectID{app},
		WriteSet: []ObjectID{x},
	}
}

// NewPhysicalWrite builds W_P(X,v): a blind physical write; v is logged.
func NewPhysicalWrite(x ObjectID, v []byte) *Operation {
	return &Operation{
		Kind:     KindPhysicalWrite,
		WriteSet: []ObjectID{x},
		Values:   map[ObjectID][]byte{x: append([]byte(nil), v...)},
	}
}

// NewPhysioWrite builds W_PL(X): a physiological update of the single object
// X, X <- fn(X).
func NewPhysioWrite(x ObjectID, fn FuncID, params []byte) *Operation {
	return &Operation{
		Kind:     KindPhysioWrite,
		Func:     fn,
		Params:   params,
		ReadSet:  []ObjectID{x},
		WriteSet: []ObjectID{x},
	}
}

// NewIdentityWrite builds W_IP(X,val): the cache manager's identity write of
// X with its current cached value val, logged physically (Section 4).
func NewIdentityWrite(x ObjectID, val []byte) *Operation {
	return &Operation{
		Kind:     KindIdentityWrite,
		WriteSet: []ObjectID{x},
		Values:   map[ObjectID][]byte{x: append([]byte(nil), val...)},
	}
}

// NewCreate builds an object-creation operation with initial value v.
func NewCreate(x ObjectID, v []byte) *Operation {
	return &Operation{
		Kind:     KindCreate,
		WriteSet: []ObjectID{x},
		Values:   map[ObjectID][]byte{x: append([]byte(nil), v...)},
	}
}

// NewDelete builds a lifetime-terminating delete of the given objects.
func NewDelete(objs ...ObjectID) *Operation {
	ws := Canonicalize(append([]ObjectID(nil), objs...))
	return &Operation{
		Kind:     KindDelete,
		WriteSet: ws,
		Deletes:  append([]ObjectID(nil), ws...),
	}
}

// ---------------------------------------------------------------------------
// Parameter encoding helpers shared by substrates.
// ---------------------------------------------------------------------------

// EncodeParams packs byte-slice fields into a single params blob
// (uvarint-length-prefixed).  The inverse is DecodeParams.
func EncodeParams(fields ...[]byte) []byte {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	for _, f := range fields {
		n := binary.PutUvarint(tmp[:], uint64(len(f)))
		buf.Write(tmp[:n])
		buf.Write(f)
	}
	return buf.Bytes()
}

// DecodeParams unpacks a blob produced by EncodeParams.
func DecodeParams(p []byte) ([][]byte, error) {
	var out [][]byte
	for len(p) > 0 {
		l, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, fmt.Errorf("op: corrupt params")
		}
		p = p[n:]
		if uint64(len(p)) < l {
			return nil, fmt.Errorf("op: truncated params")
		}
		out = append(out, p[:l:l])
		p = p[l:]
	}
	return out, nil
}
