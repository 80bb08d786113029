package cache

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"logicallog/internal/obs"
	"logicallog/internal/op"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
	"logicallog/internal/writegraph"
)

// installRig is one cache manager with everything the installation step
// feeds made observable: its store, its metrics, its InstallTrace views.
type installRig struct {
	m     *Manager
	log   *wal.Log
	store *stable.Store
	reg   *obs.Registry
	views []string
}

func newInstallRig(t *testing.T, strategy FlushStrategy) *installRig {
	t.Helper()
	r := &installRig{reg: obs.NewRegistry()}
	r.m, r.log, r.store = newTestManager(t, Config{
		Policy:      writegraph.PolicyRW,
		Strategy:    strategy,
		LogInstalls: true,
		Obs:         r.reg,
		InstallTrace: func(v *writegraph.NodeView) {
			var lsns []op.SI
			for _, o := range v.Ops {
				lsns = append(lsns, o.LSN)
			}
			r.views = append(r.views, fmt.Sprintf("node %d ops=%v vars=%v notx=%v", v.ID, lsns, v.Vars, v.Notx))
		},
	})
	return r
}

// state renders everything a primary install and its mirror must agree on:
// stable values and vSIs, cached values with dirty bits, vSIs and rSIs, the
// write-graph node count, the install counters, the flush-set and Notx size
// observations, and the InstallTrace views.
func (r *installRig) state(objects []op.ObjectID) string {
	var b strings.Builder
	snap := r.store.Snapshot()
	ids := make([]string, 0, len(snap))
	for id := range snap {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		v := snap[op.ObjectID(id)]
		fmt.Fprintf(&b, "stable %s=%q@%d\n", id, v.Val, v.VSI)
	}
	for _, x := range objects {
		if e, ok := r.m.lookup(x); ok {
			fmt.Fprintf(&b, "cached %s=%q exists=%v dirty=%v vsi=%d rsi=%d pending=%v\n",
				x, e.val, e.exists, e.dirty(), e.vsi, e.rsi(), e.pending)
		} else {
			fmt.Fprintf(&b, "cached %s absent\n", x)
		}
	}
	fmt.Fprintf(&b, "graph nodes=%d ops=%d\n", r.m.wg.Len(), r.m.wg.OpCount())
	st := r.m.Stats()
	st.IdentityWrites = 0 // the primary initiates them; the twin replays them as ordinary operations
	fmt.Fprintf(&b, "stats %+v\n", st)
	hs := r.reg.Snapshot().Histograms
	for _, name := range []string{"cache.install.flush_set_size", "cache.install.notx_size"} {
		fmt.Fprintf(&b, "%s count=%d sum=%d\n", name, hs[name].Count, hs[name].Sum)
	}
	fmt.Fprintf(&b, "cache.install.ns count=%d\n", hs["cache.install.ns"].Count)
	b.WriteString(strings.Join(r.views, "\n"))
	return b.String()
}

// recordsFrom forces log and returns its durable records from LSN from on.
func recordsFrom(t *testing.T, log *wal.Log, from op.SI) []*wal.Record {
	t.Helper()
	if err := log.Force(); err != nil {
		t.Fatal(err)
	}
	sc, err := log.Scan(from)
	if err != nil {
		t.Fatal(err)
	}
	var out []*wal.Record
	for {
		rec, err := sc.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

// mirror applies one primary record to the twin the way a standby does:
// operations are replayed, install and flush records are mirrored.
func (r *installRig) mirror(rec *wal.Record) error {
	switch rec.Type {
	case wal.RecOperation:
		voided, err := r.m.TryApplyLogged(rec.Op)
		if err == nil && voided {
			err = fmt.Errorf("replay of %s voided", rec.Op)
		}
		if err != nil {
			return err
		}
		return r.m.AddToGraph(rec.Op)
	case wal.RecInstall:
		return r.m.MirrorInstall(rec.Install)
	case wal.RecFlush:
		return r.m.MirrorFlush(rec.Flush)
	}
	return nil
}

// follow brings the twin up to the end of the primary's log.
func (r *installRig) follow(t *testing.T, primary *wal.Log, next *op.SI) {
	t.Helper()
	for _, rec := range recordsFrom(t, primary, *next) {
		if err := r.mirror(rec); err != nil {
			t.Fatalf("mirroring %s record %d: %v", rec.Type, rec.LSN, err)
		}
		*next = rec.LSN + 1
	}
}

// TestInstallStepEquivalence runs InstallNode on a primary manager, feeds the
// records it logged to MirrorInstall/MirrorFlush on a twin that replayed the
// same operations, and requires both to end in the same state: the primary
// and the standby run one installation step, so nothing it touches may
// differ.
func TestInstallStepEquivalence(t *testing.T) {
	multi := func(vals map[op.ObjectID]string) *op.Operation {
		o := &op.Operation{Kind: op.KindPhysicalWrite}
		for x := range vals {
			o.WriteSet = append(o.WriteSet, x)
		}
		o.WriteSet = op.Canonicalize(o.WriteSet)
		for _, x := range o.WriteSet {
			o.Values = append(o.Values, []byte(vals[x]))
		}
		return o
	}
	shapes := []struct {
		name    string
		objects []op.ObjectID
		// prepare runs (and installs) what must be stable beforehand; ops
		// builds the node under test plus an unrelated dirty object.
		prepare func() []*op.Operation
		ops     func() []*op.Operation
		// shape checks the uninstalled graph has the node the case is about.
		shape func(m *Manager) bool
	}{
		{
			name:    "single-object",
			objects: []op.ObjectID{"A", "E"},
			ops: func() []*op.Operation {
				return []*op.Operation{
					op.NewCreate("A", []byte("a")),
					op.NewPhysioWrite("A", op.FuncAppend, []byte("+")),
					op.NewCreate("E", []byte("e")),
				}
			},
			shape: func(m *Manager) bool {
				id, ok := m.wg.NodeOf("A")
				return ok && len(m.wg.Node(id).Vars) == 1 && len(m.wg.Node(id).Notx) == 0
			},
		},
		{
			name:    "multi-object-with-notx",
			objects: []op.ObjectID{"X", "Y", "Z", "E"},
			ops: func() []*op.Operation {
				return []*op.Operation{
					multi(map[op.ObjectID]string{"X": "x", "Y": "y", "Z": "z"}),
					op.NewPhysicalWrite("X", []byte("x2")), // blind: X leaves vars(n) for Notx(n)
					op.NewCreate("E", []byte("e")),
				}
			},
			shape: func(m *Manager) bool {
				id, ok := m.wg.NodeOf("Y")
				return ok && len(m.wg.Node(id).Vars) == 2 && len(m.wg.Node(id).Notx) == 1
			},
		},
		{
			name:    "terminated-object",
			objects: []op.ObjectID{"D", "E"},
			prepare: func() []*op.Operation { return []*op.Operation{op.NewCreate("D", []byte("d"))} },
			ops: func() []*op.Operation {
				return []*op.Operation{op.NewDelete("D"), op.NewCreate("E", []byte("e"))}
			},
			shape: func(m *Manager) bool {
				e, ok := m.lookup("D")
				return ok && !e.exists && e.dirty()
			},
		},
	}
	for _, strategy := range []FlushStrategy{StrategyIdentityWrite, StrategyShadow, StrategyFlushTxn} {
		for _, sh := range shapes {
			t.Run(strategy.String()+"/"+sh.name, func(t *testing.T) {
				primary, twin := newInstallRig(t, strategy), newInstallRig(t, strategy)
				next := op.SI(1)
				if sh.prepare != nil {
					for _, o := range sh.prepare() {
						mustExec(t, primary.m, o)
					}
				}
				if err := primary.m.PurgeAll(); err != nil {
					t.Fatal(err)
				}
				for _, o := range sh.ops() {
					mustExec(t, primary.m, o)
				}
				if !sh.shape(primary.m) {
					t.Fatalf("write graph lacks the node under test: %+v", primary.m.wg.Nodes())
				}
				twin.follow(t, primary.log, &next)
				if got, want := twin.state(sh.objects), primary.state(sh.objects); got != want {
					t.Fatalf("before any install\n--- twin\n%s\n--- primary\n%s", got, want)
				}

				// One install: something stays dirty, so dirty bits, rSIs and
				// the surviving graph are compared mid-way, not only when clean.
				if _, err := primary.m.InstallMinimal(); err != nil {
					t.Fatal(err)
				}
				twin.follow(t, primary.log, &next)
				if got, want := twin.state(sh.objects), primary.state(sh.objects); got != want {
					t.Errorf("after one install\n--- twin\n%s\n--- primary\n%s", got, want)
				}
				if len(primary.views) == 0 {
					t.Error("InstallTrace never fired")
				}

				if err := primary.m.PurgeAll(); err != nil {
					t.Fatal(err)
				}
				twin.follow(t, primary.log, &next)
				if got, want := twin.state(sh.objects), primary.state(sh.objects); got != want {
					t.Errorf("after purge\n--- twin\n%s\n--- primary\n%s", got, want)
				}
				if twin.m.wg.Len() != 0 || twin.m.DirtyCount() != 0 {
					t.Errorf("twin not clean after mirroring a full purge: %d nodes, %d dirty",
						twin.m.wg.Len(), twin.m.DirtyCount())
				}
			})
		}
	}
}

// TestMirroredFlushFailureLeavesInstallRerunnable fails the stable write of a
// mirrored flush record permanently: the step writes before it touches the
// write graph or the dirty table, so the node and the object's pending list
// must survive, and mirroring the same record again after the store heals
// must land where the primary did.
func TestMirroredFlushFailureLeavesInstallRerunnable(t *testing.T) {
	primary, twin := newInstallRig(t, StrategyIdentityWrite), newInstallRig(t, StrategyIdentityWrite)
	mustExec(t, primary.m, op.NewCreate("A", []byte("a")))
	mustExec(t, primary.m, op.NewPhysioWrite("A", op.FuncAppend, []byte("+")))
	if _, err := primary.m.InstallMinimal(); err != nil {
		t.Fatal(err)
	}
	recs := recordsFrom(t, primary.log, 1)
	flush := recs[len(recs)-1]
	if flush.Type != wal.RecFlush {
		t.Fatalf("primary logged a %s record, want a flush record", flush.Type)
	}
	for _, rec := range recs[:len(recs)-1] {
		if err := twin.mirror(rec); err != nil {
			t.Fatal(err)
		}
	}
	before := twin.state([]op.ObjectID{"A"})

	boom := errors.New("stable device gone")
	twin.store.SetWriteProbe(func() error { return boom })
	if err := twin.mirror(flush); !errors.Is(err, boom) {
		t.Fatalf("mirrored flush error = %v, want the injected failure", err)
	}
	if _, ok := twin.m.wg.NodeOfOp(2); !ok {
		t.Error("failed mirrored flush removed the write-graph node")
	}
	if e, _ := twin.m.lookup("A"); len(e.pending) != 2 || !e.dirty() {
		t.Errorf("failed mirrored flush touched the dirty table: pending %v dirty %v", e.pending, e.dirty())
	}
	if got := twin.state([]op.ObjectID{"A"}); got != before {
		t.Errorf("failed mirrored flush changed state\n--- after\n%s\n--- before\n%s", got, before)
	}

	twin.store.SetWriteProbe(nil)
	if err := twin.mirror(flush); err != nil {
		t.Fatalf("mirrored flush after heal: %v", err)
	}
	if got, want := twin.state([]op.ObjectID{"A"}), primary.state([]op.ObjectID{"A"}); got != want {
		t.Errorf("after heal\n--- twin\n%s\n--- primary\n%s", got, want)
	}
}

// eio is a retryable stable-store error (see wal.IsTransient).
type eio struct{}

func (eio) Error() string   { return "injected EIO" }
func (eio) Transient() bool { return true }

// failFirst returns a write probe that fails its first n consultations with
// a transient error.
func failFirst(n int) stable.WriteProbe {
	return func() error {
		if n > 0 {
			n--
			return eio{}
		}
		return nil
	}
}

// TestInstallRetriesTransientAlikeOnPrimaryAndMirror: a transient EIO is
// retried by the one retry helper, so a primary install and a mirrored one
// make the same number of retries over the same backoff sequence, and give
// up after the same budget with the install still re-runnable.
func TestInstallRetriesTransientAlikeOnPrimaryAndMirror(t *testing.T) {
	primary, twin := newInstallRig(t, StrategyIdentityWrite), newInstallRig(t, StrategyIdentityWrite)
	next := op.SI(1)
	retries := func(r *installRig) string {
		s := r.reg.Snapshot()
		h := s.Histograms["cache.retry.backoff_ns"]
		return fmt.Sprintf("attempts=%d backoffs=%d total=%v max=%v",
			s.Counters["cache.retry.attempts"], h.Count, time.Duration(h.Sum), time.Duration(h.Max))
	}

	// Two EIOs: absorbed on both sides.
	mustExec(t, primary.m, op.NewCreate("A", []byte("a")))
	primary.store.SetWriteProbe(failFirst(2))
	twin.store.SetWriteProbe(failFirst(2))
	if _, err := primary.m.InstallMinimal(); err != nil {
		t.Fatalf("primary install with 2 EIOs: %v", err)
	}
	twin.follow(t, primary.log, &next)
	if got, want := retries(twin), retries(primary); got != want || !strings.HasPrefix(got, "attempts=2 backoffs=2 ") {
		t.Errorf("retries after 2 EIOs: twin %s, primary %s", got, want)
	}

	// Four EIOs exceed the budget on both sides, after the same retries.
	mustExec(t, primary.m, op.NewCreate("B", []byte("b")))
	primary.store.SetWriteProbe(failFirst(4))
	if _, err := primary.m.InstallMinimal(); !wal.IsTransient(err) {
		t.Fatalf("primary install with 4 EIOs: %v, want a transient failure", err)
	}
	if _, ok := primary.m.wg.NodeOf("B"); !ok {
		t.Fatal("failed primary install removed the node")
	}
	if _, err := primary.m.InstallMinimal(); err != nil { // the probe is spent: the re-run succeeds
		t.Fatalf("primary install re-run: %v", err)
	}
	recs := recordsFrom(t, primary.log, next)
	twin.store.SetWriteProbe(failFirst(4))
	for _, rec := range recs {
		err := twin.mirror(rec)
		if rec.Type == wal.RecFlush {
			if !wal.IsTransient(err) {
				t.Fatalf("mirrored flush with 4 EIOs: %v, want a transient failure", err)
			}
			err = twin.mirror(rec)
		}
		if err != nil {
			t.Fatalf("mirroring %s record %d: %v", rec.Type, rec.LSN, err)
		}
	}
	if got, want := retries(twin), retries(primary); got != want || !strings.HasPrefix(got, "attempts=5 backoffs=5 ") {
		t.Errorf("retries after budget exhaustion: twin %s, primary %s", got, want)
	}
	objs := []op.ObjectID{"A", "B"}
	if got, want := twin.state(objs), primary.state(objs); got != want {
		t.Errorf("final state\n--- twin\n%s\n--- primary\n%s", got, want)
	}
}

// TestInstallForcesTheLog mirrors a primary's install and flush records on a
// twin whose log holds the shipped records unforced: the installation step
// itself must force that log through every operation it installs and every
// Notx object's last pending writer, with no force from the caller, and do
// it before the stable write (WAL protocol).
func TestInstallForcesTheLog(t *testing.T) {
	for _, strategy := range []FlushStrategy{StrategyIdentityWrite, StrategyShadow, StrategyFlushTxn} {
		t.Run(strategy.String(), func(t *testing.T) {
			primary, twin := newInstallRig(t, strategy), newInstallRig(t, strategy)
			mustExec(t, primary.m, op.NewCreate("A", []byte("a")))
			mustExec(t, primary.m, op.NewPhysioWrite("A", op.FuncAppend, []byte("+")))
			xyz := &op.Operation{Kind: op.KindPhysicalWrite, WriteSet: []op.ObjectID{"X", "Y", "Z"},
				Values: [][]byte{[]byte("x"), []byte("y"), []byte("z")}}
			mustExec(t, primary.m, xyz)
			mustExec(t, primary.m, op.NewPhysicalWrite("X", []byte("x2"))) // blind: X joins Notx
			if err := primary.m.PurgeAll(); err != nil {
				t.Fatal(err)
			}

			// The store's write probe sees the twin's log as the stable write
			// starts.
			var atWrite op.SI
			twin.store.SetWriteProbe(func() error {
				atWrite = twin.log.StableLSN()
				return nil
			})
			var installs, notx int
			for _, rec := range recordsFrom(t, primary.log, 1) {
				if err := twin.log.AppendShipped(rec); err != nil {
					t.Fatal(err)
				}
				var want op.SI
				switch rec.Type {
				case wal.RecInstall:
					want = slices.Max(rec.Install.Ops)
					for _, u := range rec.Install.Unflushed {
						if e, ok := twin.m.lookup(u.ID); ok && len(e.pending) > 0 {
							want = max(want, e.pending[len(e.pending)-1])
							notx++
						}
					}
				case wal.RecFlush:
					e, _ := twin.m.lookup(rec.Flush.Object)
					id, _ := twin.m.wg.NodeOfOp(e.vsi)
					for _, o := range twin.m.wg.Node(id).Ops {
						want = max(want, o.LSN)
					}
				}
				atWrite = 0
				if err := twin.mirror(rec); err != nil {
					t.Fatalf("mirroring %s record %d: %v", rec.Type, rec.LSN, err)
				}
				if want == 0 {
					continue
				}
				installs++
				if atWrite < want {
					t.Errorf("mirroring %s record %d wrote the store at stable LSN %d, want at least %d", rec.Type, rec.LSN, atWrite, want)
				}
			}
			if installs == 0 || notx == 0 {
				t.Fatalf("mirrored %d installs with %d Notx objects; the case needs both", installs, notx)
			}
		})
	}
}

// TestInstallRecordMatchesRemovedNode checks, install by install, that the
// record InstallNode appends names exactly the node snapshot InstallTrace
// received: a flush record for a single flushed object with nothing
// unexposed, otherwise an install record with the node's operation LSNs, its
// flushed vars and its Notx objects, each Notx object with the LSN of its
// earliest write still in the write graph as rSI.  It runs every strategy
// over multi-object nodes, blind writes that leave objects unexposed, and
// logical operations whose inverse write-read edges make identity-write
// breakup defer a node.
func TestInstallRecordMatchesRemovedNode(t *testing.T) {
	objects := []op.ObjectID{"o0", "o1", "o2", "o3", "o4"}
	multi := func(rng *rand.Rand) *op.Operation {
		o := &op.Operation{Kind: op.KindPhysicalWrite}
		for _, x := range objects {
			if rng.Intn(2) == 0 {
				o.WriteSet = append(o.WriteSet, x)
				o.Values = append(o.Values, []byte{byte(rng.Intn(256))})
			}
		}
		if len(o.WriteSet) < 2 {
			o.WriteSet = objects[:2]
			o.Values = [][]byte{{1}, {2}}
		}
		return o
	}
	for _, strategy := range []FlushStrategy{StrategyIdentityWrite, StrategyShadow, StrategyFlushTxn} {
		t.Run(strategy.String(), func(t *testing.T) {
			var views []*writegraph.NodeView
			m, log, _ := newTestManager(t, Config{
				Policy:      writegraph.PolicyRW,
				Strategy:    strategy,
				LogInstalls: true,
				// Keep the view as traced, whatever happens to it later.
				InstallTrace: func(v *writegraph.NodeView) {
					c := *v
					c.Ops, c.Vars, c.Notx = slices.Clone(v.Ops), slices.Clone(v.Vars), slices.Clone(v.Notx)
					c.Lastw = maps.Clone(v.Lastw)
					views = append(views, &c)
				},
			})
			next := op.SI(1)
			var flushes, multiFlushed, unflushed, deferred int
			install := func() bool {
				t.Helper()
				first, ok := m.wg.FirstMinimal()
				views = views[:0]
				_, err := m.InstallMinimal()
				if errors.Is(err, ErrNothingToInstall) {
					return false
				}
				if err != nil {
					t.Fatal(err)
				}
				recs := recordsFrom(t, log, next)
				next = recs[len(recs)-1].LSN + 1
				if len(views) != 1 {
					t.Fatalf("one install traced %d nodes", len(views))
				}
				v := views[0]
				if !ok || v.ID != first {
					deferred++
				}
				for _, rec := range recs[:len(recs)-1] {
					if rec.Type != wal.RecOperation {
						t.Fatalf("install appended a %s record before its own", rec.Type)
					}
				}
				rec := recs[len(recs)-1]
				if len(v.Vars) == 1 && len(v.Notx) == 0 {
					if rec.Type != wal.RecFlush {
						t.Fatalf("node %d flushes only %v: logged a %s record, want a flush record", v.ID, v.Vars, rec.Type)
					}
					if rec.Flush.Object != v.Vars[0] || rec.Flush.VSI != v.Lastw[v.Vars[0]] {
						t.Errorf("flush record %+v, node %d flushed %s at %d", rec.Flush, v.ID, v.Vars[0], v.Lastw[v.Vars[0]])
					}
					flushes++
					return true
				}
				if rec.Type != wal.RecInstall {
					t.Fatalf("node %d (vars %v notx %v) logged a %s record, want an install record", v.ID, v.Vars, v.Notx, rec.Type)
				}
				var lsns []op.SI
				for _, o := range v.Ops {
					lsns = append(lsns, o.LSN)
					if _, ok := m.wg.NodeOfOp(o.LSN); ok {
						t.Errorf("installed operation %d is still in the write graph", o.LSN)
					}
				}
				if !slices.Equal(rec.Install.Ops, lsns) {
					t.Errorf("install record ops %v, node %d ops %v", rec.Install.Ops, v.ID, lsns)
				}
				want := make([]wal.ObjectRSI, len(v.Vars))
				for i, x := range v.Vars {
					want[i].ID = x
				}
				if !slices.Equal(rec.Install.Flushed, want) {
					t.Errorf("install record flushed %v, node %d vars %v", rec.Install.Flushed, v.ID, v.Vars)
				}
				want = make([]wal.ObjectRSI, len(v.Notx))
				for i, x := range v.Notx {
					want[i] = wal.ObjectRSI{ID: x, RSI: earliestPendingWrite(m.wg, x)}
				}
				if !slices.Equal(rec.Install.Unflushed, want) {
					t.Errorf("install record unflushed %v, node %d Notx with rSIs %v", rec.Install.Unflushed, v.ID, want)
				}
				if len(v.Vars) > 1 {
					multiFlushed++
				}
				if len(v.Notx) > 0 {
					unflushed++
				}
				return true
			}

			rng := rand.New(rand.NewSource(29))
			for trial := 0; trial < 20; trial++ {
				for _, x := range objects {
					mustExec(t, m, op.NewCreate(x, []byte{byte(trial)}))
				}
				for install() {
				}
				// A node with vars {o0, o1} whose o1 was written last, so
				// breakup keeps o1 and identity-writes o0; the copy read
				// the o0 that node wrote, and the inverse write-read edge
				// the identity write adds defers the node behind it.
				mustExec(t, m, &op.Operation{Kind: op.KindPhysicalWrite, WriteSet: objects[:2],
					Values: [][]byte{{1}, {2}}})
				mustExec(t, m, op.NewLogical(op.FuncCopy, []byte(objects[2]), objects[:1], objects[2:3]))
				mustExec(t, m, op.NewPhysioWrite(objects[1], op.FuncAppend, []byte{3}))
				install()
				for step := 0; step < 40; step++ {
					switch r := rng.Intn(10); {
					case r < 2:
						install()
					case r < 4:
						mustExec(t, m, multi(rng))
					default:
						mustExec(t, m, randomWorkloadOp(rng, objects))
					}
				}
				for install() {
				}
				for _, x := range objects {
					mustExec(t, m, op.NewDelete(x))
				}
				for install() {
				}
			}
			if flushes == 0 || unflushed == 0 {
				t.Errorf("%d flush records, %d install records with Notx objects; the case needs both", flushes, unflushed)
			}
			if strategy == StrategyIdentityWrite {
				if m.Stats().IdentityWrites == 0 || deferred == 0 {
					t.Errorf("%d identity writes, %d deferred nodes; breakup needs both", m.Stats().IdentityWrites, deferred)
				}
			} else if multiFlushed == 0 {
				t.Error("no install flushed more than one object")
			}
		})
	}
}

// earliestPendingWrite is the LSN of the first operation still in wg that
// writes x: the rSI an install must give x when it leaves x unexposed.
func earliestPendingWrite(wg *writegraph.Graph, x op.ObjectID) op.SI {
	rsi := op.NilSI
	for _, v := range wg.Nodes() {
		for _, o := range v.Ops {
			if slices.Contains(o.WriteSet, x) && (rsi == op.NilSI || o.LSN < rsi) {
				rsi = o.LSN
			}
		}
	}
	return rsi
}
