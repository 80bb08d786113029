// Package fsim implements the file-system recovery domain of the paper
// (Section 1): files are recoverable objects, and the bulk operations the
// paper highlights — copy and sort — are logged as B-form logical operations
// (X <- g(Y)) that record only the source and target file ids, never the
// file contents.
//
// The package also provides physiological fallbacks (copy/sort that log the
// produced contents) so experiment E8 can compare logging cost on identical
// workloads.
package fsim

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"logicallog/internal/core"
	"logicallog/internal/op"
)

// Function ids registered by Register.
const (
	// FuncTruncate is a physiological truncation: X <- X[:n].
	FuncTruncate op.FuncID = "fsim.truncate"
	// FuncAppendData is a physiological append of logged data: X <- X||p.
	FuncAppendData op.FuncID = "fsim.append"
	// FuncConcatFiles is a logical concatenation: Z <- X || Y.
	FuncConcatFiles op.FuncID = "fsim.concat"
)

// Register installs the file-system transformations on a registry.
func Register(reg *op.Registry) {
	reg.Register(FuncTruncate, truncateFn)
	reg.Register(FuncAppendData, appendFn)
	reg.Register(FuncConcatFiles, concatFn)
}

func truncateFn(params []byte, a *op.Args) error {
	id, v := a.Sole()
	fields, err := op.DecodeParams(params)
	if err != nil || len(fields) != 1 || len(fields[0]) != 8 {
		return fmt.Errorf("fsim: truncate wants an 8-byte length param")
	}
	n := int(beUint64(fields[0]))
	if n > len(v) {
		n = len(v)
	}
	a.Write(id, append([]byte(nil), v[:n]...))
	return nil
}

func appendFn(params []byte, a *op.Args) error {
	id, v := a.Sole()
	out := make([]byte, 0, len(v)+len(params))
	out = append(out, v...)
	out = append(out, params...)
	a.Write(id, out)
	return nil
}

// concatFn params: EncodeParams(target, first, second).
func concatFn(params []byte, a *op.Args) error {
	fields, err := op.DecodeParams(params)
	if err != nil || len(fields) != 3 {
		return fmt.Errorf("fsim: concat wants (target, first, second) params")
	}
	first, second := a.Read(op.ObjectID(fields[1])), a.Read(op.ObjectID(fields[2]))
	out := make([]byte, 0, len(first)+len(second))
	out = append(out, first...)
	out = append(out, second...)
	a.Write(op.ObjectID(fields[0]), out)
	return nil
}

func beUint64(b []byte) uint64 {
	var x uint64
	for _, c := range b {
		x = x<<8 | uint64(c)
	}
	return x
}

func beBytes(x uint64) []byte {
	out := make([]byte, 8)
	for i := 7; i >= 0; i-- {
		out[i] = byte(x)
		x >>= 8
	}
	return out
}

// ErrNotFound is returned for missing files.
var ErrNotFound = errors.New("fsim: file not found")

// FS is a recoverable flat file system over an engine.  File names map to
// object ids under a prefix so several file systems can share one engine.
type FS struct {
	eng    *core.Engine
	prefix string
}

// New returns a file system over eng with the given namespace prefix
// (e.g. "fs").  The engine's registry must have Register applied.
func New(eng *core.Engine, prefix string) *FS {
	return &FS{eng: eng, prefix: prefix}
}

func (fs *FS) oid(name string) op.ObjectID {
	return op.ObjectID(fs.prefix + "/" + name)
}

// Create creates a file with the given contents (physical operation: the
// initial contents must be logged — they exist nowhere else).
func (fs *FS) Create(name string, contents []byte) error {
	return fs.eng.Execute(op.NewCreate(fs.oid(name), contents))
}

// ReadFile returns the file contents.
func (fs *FS) ReadFile(name string) ([]byte, error) {
	v, err := fs.eng.Get(fs.oid(name))
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return v, nil
}

// WriteFile overwrites the file with logged contents (physical).
func (fs *FS) WriteFile(name string, contents []byte) error {
	return fs.eng.Execute(op.NewPhysicalWrite(fs.oid(name), contents))
}

// Append appends logged data (physiological: only the delta is logged).
func (fs *FS) Append(name string, data []byte) error {
	return fs.eng.Execute(op.NewPhysioWrite(fs.oid(name), FuncAppendData, data))
}

// Truncate shortens the file to n bytes (physiological).
func (fs *FS) Truncate(name string, n uint64) error {
	return fs.eng.Execute(op.NewPhysioWrite(fs.oid(name), FuncTruncate, op.EncodeParams(beBytes(n))))
}

// Copy copies src to dst as a logical B-form operation: only the two file
// ids are logged (the paper's file-copy example).
func (fs *FS) Copy(dst, src string) error {
	return fs.eng.Execute(op.NewLogical(op.FuncCopy, []byte(fs.oid(dst)),
		[]op.ObjectID{fs.oid(src)}, []op.ObjectID{fs.oid(dst)}))
}

// CopyPhysical copies src to dst logging dst's full contents — the
// physiological comparison (Figure 1(b)).
func (fs *FS) CopyPhysical(dst, src string) error {
	v, err := fs.ReadFile(src)
	if err != nil {
		return err
	}
	return fs.eng.Execute(op.NewPhysicalWrite(fs.oid(dst), v))
}

// Sort writes the byte-sorted contents of src into dst as a logical
// operation (the paper's sort example — only ids logged).
func (fs *FS) Sort(dst, src string) error {
	return fs.eng.Execute(op.NewLogical(op.FuncSort, []byte(fs.oid(dst)),
		[]op.ObjectID{fs.oid(src)}, []op.ObjectID{fs.oid(dst)}))
}

// SortPhysical sorts src into dst logging the sorted contents.
func (fs *FS) SortPhysical(dst, src string) error {
	v, err := fs.ReadFile(src)
	if err != nil {
		return err
	}
	out := append([]byte(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return fs.eng.Execute(op.NewPhysicalWrite(fs.oid(dst), out))
}

// Concat concatenates files a and b into dst logically.
func (fs *FS) Concat(dst, a, b string) error {
	params := op.EncodeParams([]byte(fs.oid(dst)), []byte(fs.oid(a)), []byte(fs.oid(b)))
	return fs.eng.Execute(op.NewLogical(FuncConcatFiles, params,
		[]op.ObjectID{fs.oid(a), fs.oid(b)}, []op.ObjectID{fs.oid(dst)}))
}

// Remove deletes the file (terminating its lifetime; Section 5's transient-
// file optimization applies).
func (fs *FS) Remove(name string) error {
	return fs.eng.Execute(op.NewDelete(fs.oid(name)))
}

// Exists reports whether the file currently exists.
func (fs *FS) Exists(name string) bool {
	_, err := fs.eng.Get(fs.oid(name))
	return err == nil
}

// List returns the names of all live files under this prefix, in order.
// It enumerates through the engine, so it sees created-but-never-installed
// files the stable store alone would miss, hides cached deletions, and —
// during an on-demand recovery drain — gates on the range's writer chains.
func (fs *FS) List() ([]string, error) {
	lo := op.ObjectID(fs.prefix + "/")
	hi := op.ObjectID(fs.prefix + "0") // one past '/': every name is below it
	ids, err := fs.eng.Objects(lo, hi)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ids))
	for _, id := range ids {
		if n, ok := fs.nameOf(id); ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (fs *FS) nameOf(id op.ObjectID) (string, bool) {
	p := fs.prefix + "/"
	if strings.HasPrefix(string(id), p) {
		return string(id)[len(p):], true
	}
	return "", false
}
