package op

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"logicallog/internal/frame"
)

// FuncID identifies a registered, deterministic transformation function.
// FuncIDs are stable names recorded on the log; at replay time the recovery
// process looks the function up and re-executes it against the recovering
// state, which is how a logical operation regenerates values that were never
// logged.
type FuncID string

// TransformFunc is a deterministic transformation.  It receives the logged
// parameters and the operation's arguments: the current values of its
// readset and one slot per object of its writeset.  It reads inputs by name
// with a.Read (or a.Sole when it reads one object) and fills every slot
// with a.Write.  It must be a pure function of (params, reads) — replay
// correctness depends on it.
//
// The inputs are borrowed, not copied: params may alias the log, and each
// read value is the cache's own slice, capped at its length so an append
// reallocates instead of writing into another value's spare capacity.  Both
// are read-only.  The written values become cached state, so they must be
// freshly allocated, never the input slices themselves.
type TransformFunc func(params []byte, a *Args) error

// Args carries one application's inputs and outputs by position: the read
// values in ReadSet order and the write slots in WriteSet order.  The
// transform names objects; Args resolves each name to its position.
//
// Args records the first breach of the operation's contract: a read outside
// the readset, Sole on an operation that does not read exactly one object,
// a write outside the writeset, or a second write to one slot.  A breached
// read returns nil and a breached write is dropped, so a transform need not
// check each call; Registry.Apply reports the breach instead of whatever
// the transform went on to return.
type Args struct {
	o       *Operation
	reads   [][]byte
	writes  [][]byte
	written []bool
	err     string
}

// Read returns the value of x, which must be in the readset.
func (a *Args) Read(x ObjectID) []byte {
	i, ok := indexOf(a.o.ReadSet, x)
	if !ok {
		a.violate(fmt.Sprintf("read %q outside readset %v", x, a.o.ReadSet))
		return nil
	}
	return a.reads[i]
}

// Sole returns the only object the operation reads and its value.
func (a *Args) Sole() (ObjectID, []byte) {
	if len(a.reads) != 1 {
		a.violate(fmt.Sprintf("expected exactly 1 read object, got %d", len(a.reads)))
		return "", nil
	}
	return a.o.ReadSet[0], a.reads[0]
}

// ReadSet returns the objects the operation reads, in canonical order.  The
// slice is the operation's own and is read-only.
func (a *Args) ReadSet() []ObjectID { return a.o.ReadSet }

// Write fills x's slot with v.  x must be in the writeset and written once.
func (a *Args) Write(x ObjectID, v []byte) {
	i, ok := indexOf(a.o.WriteSet, x)
	switch {
	case !ok:
		a.violate(fmt.Sprintf("wrote %q outside writeset %v", x, a.o.WriteSet))
	case a.written[i]:
		a.violate(fmt.Sprintf("wrote %q twice", x))
	default:
		a.writes[i] = v
		a.written[i] = true
	}
}

func (a *Args) violate(msg string) {
	if a.err == "" {
		a.err = msg
	}
}

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

// Apply executes operation o against the read values (in ReadSet order) and
// returns the values o writes (in WriteSet order).  For physical kinds the
// logged values are returned as copies.  For deletes, every slot is nil
// (terminated).
//
// Apply enforces the operation contract: the function may read only
// readset(o) and must write each object of writeset(o) exactly once.  A
// breach recorded in Args, or a slot left unwritten by a function that
// returned no error, is reported as a *ContractError in preference to the
// function's own error; the recovery process uses either to "void" trial
// executions (Section 5 of the paper: a re-execution that attempts to update
// more than the original writeset is detected and terminated).
func (r *Registry) Apply(o *Operation, reads [][]byte) ([][]byte, error) {
	switch o.Kind {
	case KindPhysicalWrite, KindIdentityWrite, KindCreate:
		if len(o.Values) != len(o.WriteSet) {
			return nil, fmt.Errorf("op: %s logs %d values for %d objects", o, len(o.Values), len(o.WriteSet))
		}
		out := make([][]byte, len(o.Values))
		for i, v := range o.Values {
			out[i] = append([]byte(nil), v...)
		}
		return out, nil
	case KindDelete:
		return make([][]byte, len(o.WriteSet)), nil
	}
	fn, ok := r.Lookup(o.Func)
	if !ok {
		return nil, fmt.Errorf("%w %q in %s", ErrUnknownFunc, o.Func, o)
	}
	if len(reads) != len(o.ReadSet) {
		return nil, fmt.Errorf("op: %s given %d read values for %d objects", o, len(reads), len(o.ReadSet))
	}
	a := &Args{
		o:       o,
		reads:   reads,
		writes:  make([][]byte, len(o.WriteSet)),
		written: make([]bool, len(o.WriteSet)),
	}
	err := fn(o.Params, a)
	if a.err != "" {
		return nil, &ContractError{Op: o, Reason: a.err}
	}
	if err != nil {
		return nil, fmt.Errorf("op: %s: %w", o, err)
	}
	for i, w := range a.written {
		if !w {
			return nil, &ContractError{Op: o, Reason: fmt.Sprintf("left %q unwritten", o.WriteSet[i])}
		}
	}
	return a.writes, nil
}

// ContractError reports a transformation that broke its operation's
// contract: it read outside the readset, called Sole on an operation that
// does not read exactly one object, wrote outside the writeset, wrote one
// object twice or left one unwritten.  During recovery's trial execution
// this voids the redo (Section 5, case 2b).
type ContractError struct {
	Op     *Operation
	Reason string
}

func (e *ContractError) Error() string {
	return fmt.Sprintf("op: %s %s", e.Op, e.Reason)
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
		Values:   [][]byte{append([]byte(nil), v...)},
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
		Values:   [][]byte{append([]byte(nil), val...)},
	}
}

// NewCreate builds an object-creation operation with initial value v.
func NewCreate(x ObjectID, v []byte) *Operation {
	return &Operation{
		Kind:     KindCreate,
		WriteSet: []ObjectID{x},
		Values:   [][]byte{append([]byte(nil), v...)},
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

// EncodeParams packs byte-slice fields into a single params blob, each a
// bytes field of frame's field codec.  The inverse is DecodeParams.
func EncodeParams(fields ...[]byte) []byte {
	var out []byte
	if len(fields) > 0 {
		n := 0
		for _, f := range fields {
			n += frame.MaxVarintLen + len(f)
		}
		out = make([]byte, 0, n)
	}
	for _, f := range fields {
		out = frame.AppendBytes(out, f)
	}
	return out
}

// DecodeParams unpacks a blob produced by EncodeParams.  The fields alias p
// with their capacity capped, so appending to one never writes into the next.
func DecodeParams(p []byte) ([][]byte, error) {
	var out [][]byte
	d := frame.NewReader(p)
	for d.Len() > 0 {
		out = append(out, d.Bytes())
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("op: corrupt params: %w", err)
	}
	return out, nil
}
