package op

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"sort"
)

// Builtin FuncIDs.  These cover the transformation shapes used by the paper's
// examples and by the substrate packages.  Substrates may register additional
// functions on the same registry.
const (
	// FuncIdentity: single read object, single write object, output equals
	// input.  Y <- X when read≠write, or a no-op self-write.
	FuncIdentity FuncID = "builtin.identity"
	// FuncConst: writes params as the new value of the single write object.
	// Equivalent to a physical write expressed as a function.
	FuncConst FuncID = "builtin.const"
	// FuncCopy: B-form copy, X <- copy(Y): the single write object receives
	// the value of the single read object (the paper's file-copy and B-tree
	// split building block).
	FuncCopy FuncID = "builtin.copy"
	// FuncConcat: A-form combine, Y <- Y || X: appends the other read
	// object's value to the written object's own prior value.  Params name
	// the "other" object id.
	FuncConcat FuncID = "builtin.concat"
	// FuncSort: B-form sort, Y <- sort(X): write object receives the
	// byte-sorted value of the read object (the paper's file-sort example).
	FuncSort FuncID = "builtin.sort"
	// FuncXor: A-form mix, Y <- Y XOR X (repeating X cyclically).  Used by
	// tests because it is self-inverse and order-sensitive.
	FuncXor FuncID = "builtin.xor"
	// FuncAppend: physiological append, X <- X || params.
	FuncAppend FuncID = "builtin.append"
	// FuncCounterAdd: physiological counter, X <- uint64(X) + uvarint(params).
	FuncCounterAdd FuncID = "builtin.counter.add"
	// FuncUpperHalf / FuncLowerHalf: B-tree-split style halves.
	// Y <- upper half of X (logical, B-form); X <- lower half of X
	// (physiological truncate).
	FuncUpperHalf FuncID = "builtin.upperhalf"
	FuncLowerHalf FuncID = "builtin.lowerhalf"
)

func registerBuiltins(r *Registry) {
	r.Register(FuncIdentity, builtinIdentity)
	r.Register(FuncConst, builtinConst)
	r.Register(FuncCopy, builtinCopy)
	r.Register(FuncConcat, builtinConcat)
	r.Register(FuncSort, builtinSort)
	r.Register(FuncXor, builtinXor)
	r.Register(FuncAppend, builtinAppend)
	r.Register(FuncCounterAdd, builtinCounterAdd)
	r.Register(FuncUpperHalf, builtinUpperHalf)
	r.Register(FuncLowerHalf, builtinLowerHalf)
}

func soleRead(reads map[ObjectID][]byte) (ObjectID, []byte, error) {
	if len(reads) != 1 {
		return "", nil, fmt.Errorf("expected exactly 1 read object, got %d", len(reads))
	}
	for id, v := range reads {
		return id, v, nil
	}
	panic("unreachable")
}

func builtinIdentity(params []byte, reads map[ObjectID][]byte) (map[ObjectID][]byte, error) {
	id, v, err := soleRead(reads)
	if err != nil {
		return nil, err
	}
	target := ObjectID(params)
	if target == "" {
		target = id
	}
	return map[ObjectID][]byte{target: append([]byte(nil), v...)}, nil
}

// builtinConst params encoding: EncodeParams(target, value).
func builtinConst(params []byte, _ map[ObjectID][]byte) (map[ObjectID][]byte, error) {
	fields, err := DecodeParams(params)
	if err != nil || len(fields) != 2 {
		return nil, fmt.Errorf("const: want (target, value) params: %v", err)
	}
	return map[ObjectID][]byte{ObjectID(fields[0]): append([]byte(nil), fields[1]...)}, nil
}

// builtinCopy params: the target object id.  X <- copy(Y).
func builtinCopy(params []byte, reads map[ObjectID][]byte) (map[ObjectID][]byte, error) {
	_, v, err := soleRead(reads)
	if err != nil {
		return nil, err
	}
	if len(params) == 0 {
		return nil, fmt.Errorf("copy: params must name the target object")
	}
	return map[ObjectID][]byte{ObjectID(params): append([]byte(nil), v...)}, nil
}

// builtinConcat params: EncodeParams(selfID, otherID).  self <- self || other.
func builtinConcat(params []byte, reads map[ObjectID][]byte) (map[ObjectID][]byte, error) {
	fields, err := DecodeParams(params)
	if err != nil || len(fields) != 2 {
		return nil, fmt.Errorf("concat: want (self, other) params: %v", err)
	}
	self, other := ObjectID(fields[0]), ObjectID(fields[1])
	sv, ok := reads[self]
	if !ok {
		return nil, fmt.Errorf("concat: missing self %q", self)
	}
	ov, ok := reads[other]
	if !ok {
		return nil, fmt.Errorf("concat: missing other %q", other)
	}
	out := make([]byte, 0, len(sv)+len(ov))
	out = append(out, sv...)
	out = append(out, ov...)
	return map[ObjectID][]byte{self: out}, nil
}

// builtinSort params: the target object id.  Y <- sort(X), byte-wise.
func builtinSort(params []byte, reads map[ObjectID][]byte) (map[ObjectID][]byte, error) {
	_, v, err := soleRead(reads)
	if err != nil {
		return nil, err
	}
	if len(params) == 0 {
		return nil, fmt.Errorf("sort: params must name the target object")
	}
	out := append([]byte(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return map[ObjectID][]byte{ObjectID(params): out}, nil
}

// builtinXor params: EncodeParams(selfID, otherID).  self <- self XOR other
// (other repeated cyclically over self's length; empty other is a no-op).
func builtinXor(params []byte, reads map[ObjectID][]byte) (map[ObjectID][]byte, error) {
	fields, err := DecodeParams(params)
	if err != nil || len(fields) != 2 {
		return nil, fmt.Errorf("xor: want (self, other) params: %v", err)
	}
	self, other := ObjectID(fields[0]), ObjectID(fields[1])
	sv, ok := reads[self]
	if !ok {
		return nil, fmt.Errorf("xor: missing self %q", self)
	}
	ov, ok := reads[other]
	if !ok {
		return nil, fmt.Errorf("xor: missing other %q", other)
	}
	out := append([]byte(nil), sv...)
	if len(ov) > 0 {
		// One word-wide XOR per repetition of other; the last may be short.
		for i := 0; i < len(out); i += len(ov) {
			subtle.XORBytes(out[i:], out[i:], ov)
		}
	}
	return map[ObjectID][]byte{self: out}, nil
}

func builtinAppend(params []byte, reads map[ObjectID][]byte) (map[ObjectID][]byte, error) {
	id, v, err := soleRead(reads)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(v)+len(params))
	out = append(out, v...)
	out = append(out, params...)
	return map[ObjectID][]byte{id: out}, nil
}

func builtinCounterAdd(params []byte, reads map[ObjectID][]byte) (map[ObjectID][]byte, error) {
	id, v, err := soleRead(reads)
	if err != nil {
		return nil, err
	}
	delta, n := binary.Uvarint(params)
	if n <= 0 {
		return nil, fmt.Errorf("counter.add: bad delta")
	}
	var cur uint64
	if len(v) == 8 {
		cur = binary.BigEndian.Uint64(v)
	} else if len(v) != 0 {
		return nil, fmt.Errorf("counter.add: value is not a counter (len %d)", len(v))
	}
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, cur+delta)
	return map[ObjectID][]byte{id: out}, nil
}

// builtinUpperHalf params: the target (new) object id.  Y <- X[len/2:].
func builtinUpperHalf(params []byte, reads map[ObjectID][]byte) (map[ObjectID][]byte, error) {
	_, v, err := soleRead(reads)
	if err != nil {
		return nil, err
	}
	if len(params) == 0 {
		return nil, fmt.Errorf("upperhalf: params must name the target object")
	}
	half := v[len(v)/2:]
	return map[ObjectID][]byte{ObjectID(params): append([]byte(nil), half...)}, nil
}

func builtinLowerHalf(_ []byte, reads map[ObjectID][]byte) (map[ObjectID][]byte, error) {
	id, v, err := soleRead(reads)
	if err != nil {
		return nil, err
	}
	half := v[:len(v)/2]
	return map[ObjectID][]byte{id: append([]byte(nil), half...)}, nil
}

// Equal reports whether two values are byte-equal (nil == empty).
func Equal(a, b []byte) bool { return bytes.Equal(a, b) }
