package recovery

import (
	"logicallog/internal/stable"
	"logicallog/internal/wal"
)

// ReplaySerially is Recover without the chain scheduler and its graph
// stage: the prologue, then every operation of the redo suffix, in log
// order on the caller's goroutine, through the redo step, each redone
// operation added to the write graph straight after its apply.  It is the
// reference the scheduler's write graph is held to.
func ReplaySerially(log *wal.Log, store *stable.Store, opts Options) (*Result, error) {
	res := &Result{}
	dot, ops, err := recoverPrologue(log, store, opts, res)
	if err != nil {
		return nil, err
	}
	res.ScannedOps = len(ops)
	step := NewStep(opts, actorReplayer, res.Manager, dot)
	for _, o := range ops {
		out, err := step.Apply(o)
		if err == nil && out == Redone {
			err = res.Manager.AddToGraph(o)
		}
		if err != nil {
			return nil, err
		}
		res.Count(out)
	}
	return res, nil
}
