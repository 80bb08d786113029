// Package apprec implements the application-recovery domain of the paper
// (Section 1 and [7]): deterministic applications whose state is a
// recoverable object and whose interactions with the recoverable store are
// logged as the Table 1 operations
//
//	Ex(A)     application execution between store calls (physiological)
//	R(A,X)    application read of object X into A's input buffer (logical)
//	W_L(A,X)  logical application write of X from A's output buffer
//	W_P(X,v)  physical application write (the [7] fallback this paper makes
//	          unnecessary)
//
// An application is a tiny deterministic machine: its persistent state is an
// encoded (input buffer, accumulator, output buffer, step counter) tuple.
// Execution steps transform the accumulator from the input buffer;
// writes move the output buffer to a target object.  The point is not the
// machine's sophistication but that its operations have exactly the read/
// write-set shapes whose recovery cost the paper analyzes.
package apprec

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"logicallog/internal/core"
	"logicallog/internal/op"
)

// Function ids registered by Register.
const (
	// FuncAppExec is Ex(A): one execution step over the application state.
	FuncAppExec op.FuncID = "apprec.exec"
	// FuncAppRead is R(A,X): absorb object X into A's input buffer.
	FuncAppRead op.FuncID = "apprec.read"
	// FuncAppWrite is W_L(A,X): emit A's output buffer as X's new value.
	FuncAppWrite op.FuncID = "apprec.write"
)

// State is the decoded application state.
type State struct {
	// Input is the input buffer appended to by R(A,X).
	Input []byte
	// Acc is the accumulator transformed by Ex(A).
	Acc []byte
	// Output is the output buffer emitted by W_L(A,X).
	Output []byte
	// Steps counts executed Ex operations.
	Steps uint64
}

// Encode serializes the state into a recoverable object value.
func (s *State) Encode() []byte {
	var steps [8]byte
	binary.BigEndian.PutUint64(steps[:], s.Steps)
	return op.EncodeParams(s.Input, s.Acc, s.Output, steps[:])
}

// DecodeState parses an application state value.
func DecodeState(v []byte) (*State, error) {
	fields, err := op.DecodeParams(v)
	if err != nil || len(fields) != 4 || len(fields[3]) != 8 {
		return nil, fmt.Errorf("apprec: corrupt application state: %v", err)
	}
	return &State{
		Input:  fields[0],
		Acc:    fields[1],
		Output: fields[2],
		Steps:  binary.BigEndian.Uint64(fields[3]),
	}, nil
}

// Register installs the application transformations on a registry.  Safe to
// call once per registry.
func Register(reg *op.Registry) {
	reg.Register(FuncAppExec, execStep)
	reg.Register(FuncAppRead, readStep)
	reg.Register(FuncAppWrite, writeStep)
}

// execStep: A <- Ex(A).  Params carry the step's salt.  The accumulator
// absorbs the input buffer (xor-folded with the salt), the output buffer
// becomes a transform of the accumulator, and the input buffer is consumed.
func execStep(params []byte, a *op.Args) error {
	id, raw := a.Sole()
	st, err := DecodeState(raw)
	if err != nil {
		return err
	}
	acc := append([]byte(nil), st.Acc...)
	for i, b := range st.Input {
		if i < len(acc) {
			acc[i] ^= b
		} else {
			acc = append(acc, b)
		}
	}
	for i := range acc {
		salt := byte(0)
		if len(params) > 0 {
			salt = params[i%len(params)]
		}
		acc[i] = acc[i]*31 + salt
	}
	out := &State{
		Input:  nil,
		Acc:    acc,
		Output: append([]byte(nil), acc...),
		Steps:  st.Steps + 1,
	}
	a.Write(id, out.Encode())
	return nil
}

// readStep: A <- R(A,X).  Params name the application object so the
// transformation can tell its two inputs apart.
func readStep(params []byte, a *op.Args) error {
	appID := op.ObjectID(params)
	rs := a.ReadSet()
	if len(rs) != 2 {
		return fmt.Errorf("apprec: read step wants the application and one source, got %v", rs)
	}
	src := rs[0]
	if src == appID {
		src = rs[1]
	}
	st, err := DecodeState(a.Read(appID))
	if err != nil {
		return err
	}
	out := &State{
		Input:  append(append([]byte(nil), st.Input...), a.Read(src)...),
		Acc:    st.Acc,
		Output: st.Output,
		Steps:  st.Steps,
	}
	a.Write(appID, out.Encode())
	return nil
}

// writeStep: X <- W_L(A,X).  Params name the target object.  The new value
// of X is the application's output buffer — read from A at replay time,
// never logged.
func writeStep(params []byte, a *op.Args) error {
	_, raw := a.Sole()
	st, err := DecodeState(raw)
	if err != nil {
		return err
	}
	if len(params) == 0 {
		return fmt.Errorf("apprec: write step missing target")
	}
	a.Write(op.ObjectID(params), append([]byte(nil), st.Output...))
	return nil
}

// App drives one recoverable application over an engine.
type App struct {
	eng *core.Engine
	id  op.ObjectID
}

// Launch creates the application-state object and returns the driver.  The
// registry must already have Register applied (core engines created by this
// package's NewEngine helper do).
func Launch(eng *core.Engine, id op.ObjectID) (*App, error) {
	st := (&State{}).Encode()
	if err := eng.Execute(op.NewCreate(id, st)); err != nil {
		return nil, err
	}
	return &App{eng: eng, id: id}, nil
}

// Attach wraps an existing application-state object (e.g. after recovery).
func Attach(eng *core.Engine, id op.ObjectID) *App {
	return &App{eng: eng, id: id}
}

// ID returns the application-state object id.
func (a *App) ID() op.ObjectID { return a.id }

// Read performs R(A,X): a logical application read of object x.
func (a *App) Read(x op.ObjectID) error {
	return a.eng.Execute(op.NewAppRead(a.id, x, FuncAppRead, []byte(a.id)))
}

// Step performs Ex(A): one execution step with the given salt.
func (a *App) Step(salt []byte) error {
	return a.eng.Execute(op.NewExecute(a.id, FuncAppExec, salt))
}

// Write performs W_L(A,X): a logical application write of object x from the
// output buffer.  Nothing is logged but ids — the paper's headline saving.
func (a *App) Write(x op.ObjectID) error {
	return a.eng.Execute(op.NewLogicalWrite(a.id, x, FuncAppWrite, []byte(x)))
}

// WritePhysical performs W_P(X, output): the [7] fallback that logs the
// output buffer's value physically.  Used as the comparison baseline in E7.
func (a *App) WritePhysical(x op.ObjectID) error {
	st, err := a.State()
	if err != nil {
		return err
	}
	return a.eng.Execute(op.NewPhysicalWrite(x, st.Output))
}

// Exit deletes the application state (a terminated application, the
// Section 5 recovery optimization target).
func (a *App) Exit() error {
	return a.eng.Execute(op.NewDelete(a.id))
}

// State decodes and returns the current application state.
func (a *App) State() (*State, error) {
	raw, err := a.eng.Get(a.id)
	if err != nil {
		return nil, err
	}
	return DecodeState(raw)
}

// Equal reports whether two states are identical.
func (s *State) Equal(o *State) bool {
	return s.Steps == o.Steps &&
		bytes.Equal(s.Input, o.Input) &&
		bytes.Equal(s.Acc, o.Acc) &&
		bytes.Equal(s.Output, o.Output)
}
