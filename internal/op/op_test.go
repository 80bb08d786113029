package op

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindExecute:       "Ex",
		KindRead:          "R",
		KindPhysicalWrite: "W_P",
		KindPhysioWrite:   "W_PL",
		KindLogicalWrite:  "W_L",
		KindIdentityWrite: "W_IP",
		KindLogical:       "L",
		KindDelete:        "Del",
		KindCreate:        "Cr",
		KindInvalid:       "invalid",
		Kind(200):         "Kind(200)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindClassification(t *testing.T) {
	if !KindPhysicalWrite.Physical() || !KindIdentityWrite.Physical() || !KindCreate.Physical() {
		t.Error("physical kinds must report Physical")
	}
	if KindLogical.Physical() || KindRead.Physical() {
		t.Error("logical kinds must not report Physical")
	}
	if !KindRead.Logical() || !KindLogicalWrite.Logical() || !KindLogical.Logical() {
		t.Error("logical kinds must report Logical")
	}
	if KindExecute.Logical() || KindPhysioWrite.Logical() {
		t.Error("physiological kinds read only the object they write; not Logical")
	}
	if KindInvalid.Valid() || Kind(99).Valid() {
		t.Error("invalid kinds must not be Valid")
	}
	if !KindExecute.Valid() {
		t.Error("Ex must be Valid")
	}
}

func TestCanonicalize(t *testing.T) {
	got := Canonicalize([]ObjectID{"c", "a", "b", "a", "c"})
	want := []ObjectID{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Canonicalize = %v, want %v", got, want)
	}
	if got := Canonicalize(nil); len(got) != 0 {
		t.Errorf("Canonicalize(nil) = %v", got)
	}
}

func TestExpNotExp(t *testing.T) {
	// Operation A of Figure 1: Y <- f(X,Y).  exp = {Y}, notexp = {}.
	a := NewLogical(FuncXor, EncodeParams([]byte("Y"), []byte("X")), []ObjectID{"X", "Y"}, []ObjectID{"Y"})
	if !reflect.DeepEqual(a.Exp(), []ObjectID{"Y"}) {
		t.Errorf("exp(A) = %v, want [Y]", a.Exp())
	}
	if len(a.NotExp()) != 0 {
		t.Errorf("notexp(A) = %v, want empty", a.NotExp())
	}
	// Operation B of Figure 1: X <- g(Y).  exp = {}, notexp = {X}.
	b := NewLogical(FuncCopy, []byte("X"), []ObjectID{"Y"}, []ObjectID{"X"})
	if len(b.Exp()) != 0 {
		t.Errorf("exp(B) = %v, want empty", b.Exp())
	}
	if !reflect.DeepEqual(b.NotExp(), []ObjectID{"X"}) {
		t.Errorf("notexp(B) = %v, want [X]", b.NotExp())
	}
}

func TestConflictsWith(t *testing.T) {
	a := NewLogical(FuncXor, nil, []ObjectID{"X", "Y"}, []ObjectID{"Y"})
	b := NewLogical(FuncCopy, []byte("X"), []ObjectID{"Y"}, []ObjectID{"X"})
	c := NewPhysicalWrite("Z", []byte("z"))
	if !a.ConflictsWith(b) {
		t.Error("A and B conflict (B writes X which A reads; A writes Y which B reads)")
	}
	if !b.ConflictsWith(a) {
		t.Error("conflict must be symmetric")
	}
	if a.ConflictsWith(c) || c.ConflictsWith(a) {
		t.Error("A and W_P(Z) do not conflict")
	}
}

func TestValidate(t *testing.T) {
	valid := []*Operation{
		NewLogical(FuncCopy, []byte("X"), []ObjectID{"Y"}, []ObjectID{"X"}),
		NewExecute("A", FuncAppend, []byte("step")),
		NewAppRead("A", "X", FuncConcat, EncodeParams([]byte("A"), []byte("X"))),
		NewLogicalWrite("A", "X", FuncCopy, []byte("X")),
		NewPhysicalWrite("X", []byte("v")),
		NewPhysioWrite("X", FuncAppend, []byte("v")),
		NewIdentityWrite("X", []byte("v")),
		NewCreate("X", []byte("v")),
		NewDelete("X", "Y"),
	}
	for i, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("valid op %d (%s): %v", i, o, err)
		}
	}

	invalid := []*Operation{
		nil,
		{Kind: KindInvalid, WriteSet: []ObjectID{"X"}},
		{Kind: KindLogical, Func: FuncCopy},                                                             // empty writeset
		{Kind: KindLogical, Func: FuncCopy, WriteSet: []ObjectID{"b", "a"}},                             // non-canonical
		{Kind: KindLogical, WriteSet: []ObjectID{"X"}},                                                  // missing func
		{Kind: KindPhysicalWrite, WriteSet: []ObjectID{"X"}},                                            // missing value
		{Kind: KindPhysicalWrite, ReadSet: []ObjectID{"Y"}, WriteSet: []ObjectID{"X"}},                  // physical with readset
		{Kind: KindPhysioWrite, Func: FuncAppend, ReadSet: []ObjectID{"Y"}, WriteSet: []ObjectID{"X"}},  // physio read≠write
		{Kind: KindExecute, Func: FuncAppend, ReadSet: []ObjectID{"A"}, WriteSet: []ObjectID{"A", "B"}}, // physio multi-write
		{Kind: KindLogical, Func: FuncCopy, WriteSet: []ObjectID{"X"}, Values: [][]byte{nil}},           // logical with values
		{Kind: KindPhysicalWrite, WriteSet: []ObjectID{"X", "Y"}, Values: [][]byte{{1}}},                // one value short
		{Kind: KindLogical, Func: FuncCopy, WriteSet: []ObjectID{"X"}, Deletes: []ObjectID{"X"}},        // logical delete
		{Kind: KindCreate, WriteSet: []ObjectID{"X"}, Values: [][]byte{nil}, Deletes: []ObjectID{"X"}},  // physical delete
		{Kind: KindDelete, WriteSet: []ObjectID{"X", "Y"}, Deletes: []ObjectID{"X"}},                    // deletes ≠ writeset
	}
	for i, o := range invalid {
		if err := o.Validate(); err == nil {
			t.Errorf("invalid op %d unexpectedly validated: %+v", i, o)
		}
	}
}

func TestReadsWritesTouches(t *testing.T) {
	o := NewLogical(FuncXor, nil, []ObjectID{"A", "C"}, []ObjectID{"B", "C"})
	if !o.Reads("A") || !o.Reads("C") || o.Reads("B") {
		t.Error("Reads wrong")
	}
	if !o.Writes("B") || !o.Writes("C") || o.Writes("A") {
		t.Error("Writes wrong")
	}
	if !o.Touches("A") || !o.Touches("B") || o.Touches("Z") {
		t.Error("Touches wrong")
	}
}

func TestCloneIsDeep(t *testing.T) {
	o := NewPhysicalWrite("X", []byte("abc"))
	o.LSN = 7
	o.Params = []byte("p")
	c := o.Clone()
	c.Values[0][0] = 'z'
	c.Params[0] = 'q'
	c.WriteSet[0] = "Y"
	if string(o.Values[0]) != "abc" || string(o.Params) != "p" || o.WriteSet[0] != "X" {
		t.Error("Clone aliased underlying storage")
	}
	if c.LSN != 7 || c.Kind != KindPhysicalWrite {
		t.Error("Clone lost fields")
	}
}

func TestString(t *testing.T) {
	a := NewLogical("f", nil, []ObjectID{"X", "Y"}, []ObjectID{"Y"})
	a.LSN = 3
	if got := a.String(); got != "L@3 f(Y; X,Y)" {
		t.Errorf("String() = %q", got)
	}
	d := NewDelete("X")
	if got := d.String(); got != "Del@0 Del(X)" {
		t.Errorf("String() = %q", got)
	}
}

func TestRegistryApplyPhysicalAndDelete(t *testing.T) {
	r := NewRegistry()
	w := NewPhysicalWrite("X", []byte("v1"))
	out, err := r.Apply(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out[0]) != "v1" {
		t.Errorf("physical apply = %q", out[0])
	}
	// Returned value must be a copy.
	out[0][0] = 'z'
	if string(w.Values[0]) != "v1" {
		t.Error("Apply aliased logged value")
	}

	d := NewDelete("X", "Y")
	out, err = r.Apply(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != nil || out[1] != nil {
		t.Errorf("delete apply = %v, want two nil slots", out)
	}
}

func TestRegistryApplyLogical(t *testing.T) {
	r := NewRegistry()
	b := NewLogical(FuncCopy, []byte("X"), []ObjectID{"Y"}, []ObjectID{"X"})
	out, err := r.Apply(b, [][]byte{[]byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if string(out[0]) != "hello" {
		t.Errorf("copy = %q", out[0])
	}
	// Missing read value.
	if _, err := r.Apply(b, nil); err == nil {
		t.Error("expected error for missing read value")
	}
	// Unknown func.
	u := NewLogical("no.such.func", nil, []ObjectID{"Y"}, []ObjectID{"X"})
	if _, err := r.Apply(u, [][]byte{nil}); !errors.Is(err, ErrUnknownFunc) {
		t.Errorf("unknown FuncID: err = %v, want ErrUnknownFunc", err)
	}
}

// TestRegistryWritesetViolation: every breach of the Args contract — a read
// outside the readset, Sole on a two-object readset, a write outside the
// writeset, a second write to one slot, a slot left unwritten — is a
// *ContractError, and it is reported in preference to the transform's own
// error.
func TestRegistryWritesetViolation(t *testing.T) {
	errOwn := errors.New("own error")
	// Each transform serves an operation that reads and writes {X, Y}.
	breaches := []struct {
		name string
		fn   TransformFunc
	}{
		{"read-outside", func(_ []byte, a *Args) error {
			a.Read("Z")
			a.Write("X", nil)
			a.Write("Y", nil)
			return nil
		}},
		{"sole", func(_ []byte, a *Args) error {
			a.Sole()
			a.Write("X", nil)
			a.Write("Y", nil)
			return nil
		}},
		{"write-outside", func(_ []byte, a *Args) error {
			a.Write("X", nil)
			a.Write("Y", nil)
			a.Write("Z", nil)
			return nil
		}},
		{"write-twice", func(_ []byte, a *Args) error {
			a.Write("X", nil)
			a.Write("Y", nil)
			a.Write("X", nil)
			return nil
		}},
		{"unwritten", func(_ []byte, a *Args) error {
			a.Write("X", append([]byte(nil), a.Read("X")...))
			return nil
		}},
		{"breach-then-fail", func(_ []byte, a *Args) error {
			a.Write("OTHER", []byte("x"))
			return errOwn
		}},
	}
	r := NewRegistry()
	for _, b := range breaches {
		r.Register(FuncID("test."+b.name), b.fn)
		o := NewLogical(FuncID("test."+b.name), nil, []ObjectID{"X", "Y"}, []ObjectID{"X", "Y"})
		_, err := r.Apply(o, [][]byte{[]byte("x"), []byte("y")})
		var ce *ContractError
		if !errors.As(err, &ce) {
			t.Errorf("%s: err = %v, want a *ContractError", b.name, err)
			continue
		}
		if ce.Op != o || ce.Error() == "" {
			t.Errorf("%s: ContractError %+v", b.name, ce)
		}
	}
	// A transform that fails without breaching the contract reports its
	// own error, although it filled no slot.
	r.Register("test.own", func(_ []byte, _ *Args) error { return errOwn })
	o := NewLogical("test.own", nil, nil, []ObjectID{"X"})
	if _, err := r.Apply(o, nil); !errors.Is(err, errOwn) {
		t.Errorf("own error: err = %v", err)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration must panic")
		}
	}()
	r.Register(FuncCopy, builtinCopy)
}

func TestRegistryIDsSorted(t *testing.T) {
	r := NewRegistry()
	ids := r.IDs()
	if len(ids) == 0 {
		t.Fatal("no builtins registered")
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Errorf("IDs not sorted: %v", ids)
		}
	}
}

func TestBuiltinConcatXorSortHalves(t *testing.T) {
	r := NewRegistry()

	concat := NewLogical(FuncConcat, EncodeParams([]byte("A"), []byte("X")), []ObjectID{"A", "X"}, []ObjectID{"A"})
	out, err := r.Apply(concat, [][]byte{[]byte("ab"), []byte("cd")})
	if err != nil || string(out[0]) != "abcd" {
		t.Errorf("concat = %q, %v", out, err)
	}

	xor := NewLogical(FuncXor, EncodeParams([]byte("Y"), []byte("X")), []ObjectID{"X", "Y"}, []ObjectID{"Y"})
	out, err = r.Apply(xor, [][]byte{{1}, {1, 2, 3}})
	if err != nil || !Equal(out[0], []byte{0, 3, 2}) {
		t.Errorf("xor = %v, %v", out, err)
	}
	// XOR twice restores the original.
	out2, err := r.Apply(xor, [][]byte{{1}, out[0]})
	if err != nil || !Equal(out2[0], []byte{1, 2, 3}) {
		t.Errorf("xor∘xor = %v, %v", out2, err)
	}

	srt := NewLogical(FuncSort, []byte("Y"), []ObjectID{"X"}, []ObjectID{"Y"})
	out, err = r.Apply(srt, [][]byte{[]byte("dcba")})
	if err != nil || string(out[0]) != "abcd" {
		t.Errorf("sort = %q, %v", out, err)
	}

	up := NewLogical(FuncUpperHalf, []byte("Y"), []ObjectID{"X"}, []ObjectID{"Y"})
	out, err = r.Apply(up, [][]byte{[]byte("abcd")})
	if err != nil || string(out[0]) != "cd" {
		t.Errorf("upperhalf = %q, %v", out, err)
	}
	lo := NewPhysioWrite("X", FuncLowerHalf, nil)
	out, err = r.Apply(lo, [][]byte{[]byte("abcd")})
	if err != nil || string(out[0]) != "ab" {
		t.Errorf("lowerhalf = %q, %v", out, err)
	}
}

func TestBuiltinCounter(t *testing.T) {
	r := NewRegistry()
	params := make([]byte, 10)
	n := putUvarint(params, 5)
	add := NewPhysioWrite("C", FuncCounterAdd, params[:n])
	out, err := r.Apply(add, [][]byte{nil})
	if err != nil {
		t.Fatal(err)
	}
	out, err = r.Apply(add, out)
	if err != nil {
		t.Fatal(err)
	}
	if got := beUint64(out[0]); got != 10 {
		t.Errorf("counter = %d, want 10", got)
	}
	if _, err := r.Apply(add, [][]byte{[]byte("bad")}); err == nil {
		t.Error("expected error for malformed counter")
	}
}

func TestBuiltinIdentityAndConst(t *testing.T) {
	r := NewRegistry()
	id := NewLogical(FuncIdentity, []byte("Y"), []ObjectID{"X"}, []ObjectID{"Y"})
	out, err := r.Apply(id, [][]byte{[]byte("v")})
	if err != nil || string(out[0]) != "v" {
		t.Errorf("identity = %q, %v", out, err)
	}
	cst := NewLogical(FuncConst, EncodeParams([]byte("X"), []byte("42")), nil, []ObjectID{"X"})
	out, err = r.Apply(cst, nil)
	if err != nil || string(out[0]) != "42" {
		t.Errorf("const = %q, %v", out, err)
	}
}

func TestEncodeDecodeParamsRoundTrip(t *testing.T) {
	f := func(a, b, c []byte) bool {
		enc := EncodeParams(a, b, c)
		dec, err := DecodeParams(enc)
		if err != nil || len(dec) != 3 {
			return false
		}
		return Equal(dec[0], a) && Equal(dec[1], b) && Equal(dec[2], c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := DecodeParams([]byte{0xff}); err == nil {
		t.Error("expected error for truncated params")
	}
	if _, err := DecodeParams([]byte{10, 'a'}); err == nil {
		t.Error("expected error for short payload")
	}
}

// FuzzDecodeParams feeds arbitrary blobs to the params decoder every logical
// transform parses its params with.  Properties: it never panics; an
// accepted blob's fields re-encode to a blob that decodes to the same fields;
// and appending to a returned field never writes into the next one (nor
// anywhere else in the blob).
func FuzzDecodeParams(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeParams([]byte("obj0012"), []byte("obj0007")))
	f.Add(EncodeParams(nil, []byte("a"), nil))
	f.Add([]byte{0xff})
	f.Add([]byte{10, 'a'})
	f.Fuzz(func(t *testing.T, p []byte) {
		fields, err := DecodeParams(p)
		if err != nil {
			return
		}
		back, err := DecodeParams(EncodeParams(fields...))
		if err != nil || len(back) != len(fields) {
			t.Fatalf("re-encoded %d fields decode to %d, err %v", len(fields), len(back), err)
		}
		for i := range fields {
			if !Equal(back[i], fields[i]) {
				t.Fatalf("field %d: re-encoded %q, decoded %q", i, fields[i], back[i])
			}
		}
		blob := append([]byte(nil), p...)
		for _, fld := range fields {
			_ = append(fld, 0xaa)
		}
		if !Equal(p, blob) {
			t.Fatalf("appending to a field wrote into the blob: %x, was %x", p, blob)
		}
	})
}

func TestApplyDeterminism(t *testing.T) {
	// Property: Apply is a pure function — same inputs, same outputs.
	r := NewRegistry()
	f := func(self, other []byte) bool {
		o := NewLogical(FuncXor, EncodeParams([]byte("Y"), []byte("X")), []ObjectID{"X", "Y"}, []ObjectID{"Y"})
		in := [][]byte{other, self}
		o1, err1 := r.Apply(o, in)
		o2, err2 := r.Apply(o, in)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return Equal(o1[0], o2[0])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplyDoesNotMutateInputs(t *testing.T) {
	r := NewRegistry()
	in := [][]byte{{9}, {1, 2, 3}}
	o := NewLogical(FuncXor, EncodeParams([]byte("Y"), []byte("X")), []ObjectID{"X", "Y"}, []ObjectID{"Y"})
	if _, err := r.Apply(o, in); err != nil {
		t.Fatal(err)
	}
	if !Equal(in[1], []byte{1, 2, 3}) || !Equal(in[0], []byte{9}) {
		t.Error("Apply mutated its inputs")
	}
}

func TestContainsIDBinarySearch(t *testing.T) {
	ids := []ObjectID{"a", "c", "e", "g"}
	for _, x := range ids {
		if !containsID(ids, x) {
			t.Errorf("containsID(%q) = false", x)
		}
	}
	for _, x := range []ObjectID{"", "b", "d", "f", "h"} {
		if containsID(ids, x) {
			t.Errorf("containsID(%q) = true", x)
		}
	}
	if containsID(nil, "a") {
		t.Error("containsID(nil) = true")
	}
}

// --- small local helpers ---------------------------------------------------

func putUvarint(buf []byte, x uint64) int {
	i := 0
	for x >= 0x80 {
		buf[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	buf[i] = byte(x)
	return i + 1
}

func beUint64(b []byte) uint64 {
	if len(b) != 8 {
		panic(fmt.Sprintf("bad counter %v", b))
	}
	var x uint64
	for _, c := range b {
		x = x<<8 | uint64(c)
	}
	return x
}
