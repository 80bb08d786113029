package op

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"sort"

	"logicallog/internal/frame"
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

func builtinIdentity(params []byte, a *Args) error {
	id, v := a.Sole()
	target := ObjectID(params)
	if target == "" {
		target = id
	}
	a.Write(target, append([]byte(nil), v...))
	return nil
}

// builtinConst params encoding: EncodeParams(target, value).
func builtinConst(params []byte, a *Args) error {
	fields, err := DecodeParams(params)
	if err != nil || len(fields) != 2 {
		return fmt.Errorf("const: want (target, value) params: %v", err)
	}
	a.Write(ObjectID(fields[0]), append([]byte(nil), fields[1]...))
	return nil
}

// builtinCopy params: the target object id.  X <- copy(Y).
func builtinCopy(params []byte, a *Args) error {
	_, v := a.Sole()
	if len(params) == 0 {
		return fmt.Errorf("copy: params must name the target object")
	}
	a.Write(ObjectID(params), append([]byte(nil), v...))
	return nil
}

// builtinConcat params: EncodeParams(selfID, otherID).  self <- self || other.
func builtinConcat(params []byte, a *Args) error {
	fields, err := DecodeParams(params)
	if err != nil || len(fields) != 2 {
		return fmt.Errorf("concat: want (self, other) params: %v", err)
	}
	self := ObjectID(fields[0])
	sv, ov := a.Read(self), a.Read(ObjectID(fields[1]))
	out := make([]byte, 0, len(sv)+len(ov))
	out = append(out, sv...)
	out = append(out, ov...)
	a.Write(self, out)
	return nil
}

// builtinSort params: the target object id.  Y <- sort(X), byte-wise.
func builtinSort(params []byte, a *Args) error {
	_, v := a.Sole()
	if len(params) == 0 {
		return fmt.Errorf("sort: params must name the target object")
	}
	out := append([]byte(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	a.Write(ObjectID(params), out)
	return nil
}

// builtinXor params: EncodeParams(selfID, otherID).  self <- self XOR other
// (other repeated cyclically over self's length; empty other is a no-op).
func builtinXor(params []byte, a *Args) error {
	fields, err := DecodeParams(params)
	if err != nil || len(fields) != 2 {
		return fmt.Errorf("xor: want (self, other) params: %v", err)
	}
	self := ObjectID(fields[0])
	out := append([]byte(nil), a.Read(self)...)
	if ov := a.Read(ObjectID(fields[1])); len(ov) > 0 {
		// One word-wide XOR per repetition of other; the last may be short.
		for i := 0; i < len(out); i += len(ov) {
			subtle.XORBytes(out[i:], out[i:], ov)
		}
	}
	a.Write(self, out)
	return nil
}

func builtinAppend(params []byte, a *Args) error {
	id, v := a.Sole()
	out := make([]byte, 0, len(v)+len(params))
	out = append(out, v...)
	out = append(out, params...)
	a.Write(id, out)
	return nil
}

func builtinCounterAdd(params []byte, a *Args) error {
	id, v := a.Sole()
	d := frame.NewReader(params) // bytes after the delta are ignored
	delta := d.Uvarint()
	if d.Err() != nil {
		return fmt.Errorf("counter.add: bad delta")
	}
	var cur uint64
	if len(v) == 8 {
		cur = binary.BigEndian.Uint64(v)
	} else if len(v) != 0 {
		return fmt.Errorf("counter.add: value is not a counter (len %d)", len(v))
	}
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, cur+delta)
	a.Write(id, out)
	return nil
}

// builtinUpperHalf params: the target (new) object id.  Y <- X[len/2:].
func builtinUpperHalf(params []byte, a *Args) error {
	_, v := a.Sole()
	if len(params) == 0 {
		return fmt.Errorf("upperhalf: params must name the target object")
	}
	a.Write(ObjectID(params), append([]byte(nil), v[len(v)/2:]...))
	return nil
}

func builtinLowerHalf(_ []byte, a *Args) error {
	id, v := a.Sole()
	a.Write(id, append([]byte(nil), v[:len(v)/2]...))
	return nil
}

// Equal reports whether two values are byte-equal (nil == empty).
func Equal(a, b []byte) bool { return bytes.Equal(a, b) }
