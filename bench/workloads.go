package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/obs"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/server"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
	"logicallog/internal/workload"
	"logicallog/internal/writegraph"
)

// Workload sizes at scale 1.  README.md gives the reason for each.
const (
	kvKeys      = 10000 // preloaded and installed before the timed phase
	kvValueSize = 128

	// installEvery is the batch the logical workloads force and install in,
	// and the batch the KV preload installs in.
	installEvery    = 64
	checkpointEvery = 4096

	// adoptsPerImage is how often recover-mix restarts from one crashed
	// image before it builds the next.
	adoptsPerImage = 3

	// cheapRestarts is how often the output check of a workload whose
	// restart takes milliseconds repeats it, to steady recovery_s.
	cheapRestarts = 3
)

// logicalSpec is the paper's domain: multi-object read and write sets over
// 256 objects of 4 KiB.
func logicalSpec(seed int64) workload.Spec {
	return workload.Spec{Seed: seed, Objects: 256, ObjectSize: 4096,
		LogicalAPct: 30, LogicalBPct: 30, PhysioPct: 20, DeletePct: 2}
}

// The whys are repeated in BENCHMARK.json; bench_test.go keeps them equal.
var workloads = []*workloadDef{
	{
		name:    "kv-commit",
		why:     "Durable commits on a file WAL with real fsync, install per op: wal group commit and the device do the work, cache and writegraph almost none, so a commit-path change shows here and nowhere else.",
		clients: 2, opsPerRep: 12000, run: runKVCommit,
	},
	{
		name:    "kv-serve",
		why:     "llserve as shipped over loopback TCP, 90% Get, zipfian keys, never forces or installs: framing, admission and the engine mutex carry the time, the device is idle, so WAL gains must not show here.",
		clients: 2, opsPerRep: 80000, run: runKVServe,
	},
	{
		name:    "logical-mix",
		why:     "The paper's domain, CPU-bound on a memory device: multi-object logical ops make flush-order edges and identity writes; batched installs and checkpoints use cache and writegraph the opposite way to KV.",
		clients: 1, opsPerRep: 60000, run: runLogicalMix,
	},
	{
		name:    "recover-mix",
		why:     "Restart from a crashed image of 8000 uninstalled logical ops with no simulated I/O: recovery, the write-graph rebuild and the op transforms do all the work, server and device none.",
		clients: 1, opsPerRep: 8000, run: runRecoverMix,
	},
}

// openEngine builds an engine with the paper's default options over dev.
// In traced repetitions the device is wrapped so that device writes are
// counted and timed; reg is the obs registry to install, if any.
func openEngine(env *repEnv, dev wal.Device, reg *obs.Registry) (*core.Engine, *tracedDevice, error) {
	var td *tracedDevice
	if env.tr != nil {
		td = &tracedDevice{Device: dev, t: env.tr}
		dev = td
	}
	opts := core.DefaultOptions()
	opts.LogDevice = dev
	opts.Obs = reg
	eng, err := core.New(opts)
	return eng, td, err
}

// directObs is Options.Obs of the engine-direct workloads: nil untraced,
// a registry traced, so obs.trace_overhead_frac includes the obs tax.
func directObs(env *repEnv) *obs.Registry {
	if env.tr == nil {
		return nil
	}
	return obs.NewRegistry()
}

// walFile opens a fresh file-backed WAL device in the scratch directory;
// cleanup closes and deletes it.
func walFile(env *repEnv, name string) (dev *wal.FileDevice, cleanup func(), err error) {
	path := filepath.Join(env.dir, fmt.Sprintf("%s-%d-%d.wal", name, os.Getpid(), env.seed))
	_ = os.Remove(path)
	dev, err = wal.OpenFileDevice(path)
	if err != nil {
		return nil, nil, err
	}
	return dev, func() {
		_ = dev.Close()
		_ = os.Remove(path)
	}, nil
}

// kvStore is the benchmark's side of a KV population: the keys, their
// engine object ids, and the last acknowledged value of each (the model
// every output check reads against).
type kvStore struct {
	keys  [][]byte
	ids   []op.ObjectID
	model [][]byte
}

func randomValue(rng *rand.Rand, n int) []byte {
	v := make([]byte, n)
	rng.Read(v)
	return v
}

func newKVStore(n int, rng *rand.Rand) *kvStore {
	s := &kvStore{}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%06d", i)
		s.keys = append(s.keys, []byte(key))
		// The id server.KV gives the key, so both KV workloads hold the
		// same objects.
		s.ids = append(s.ids, op.ObjectID("kv/"+key))
		s.model = append(s.model, randomValue(rng, kvValueSize))
	}
	return s
}

// preload writes every key, forcing and installing in small batches (a
// FlushAll's cost grows faster than the backlog it drains), and ends with a
// checkpoint, so the timed phase starts on an empty write graph and a
// truncated log.
func (s *kvStore) preload(eng *core.Engine) error {
	flush := func() error {
		if err := eng.Log().Force(); err != nil {
			return err
		}
		return eng.FlushAll()
	}
	for i, id := range s.ids {
		if err := eng.Execute(op.NewPhysicalWrite(id, s.model[i])); err != nil {
			return err
		}
		if (i+1)%installEvery == 0 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	return eng.Checkpoint()
}

// verify counts the keys whose value, read through get, differs from the
// model.
func (s *kvStore) verify(get func(i int) ([]byte, error)) int {
	bad := 0
	for i := range s.ids {
		v, err := get(i)
		if err != nil || !bytes.Equal(v, s.model[i]) {
			bad++
		}
	}
	return bad
}

// kvRequest is one pre-generated client operation; a nil val is a Get.
type kvRequest struct {
	key int
	val []byte
}

// clientTally is what one client goroutine counted.
type clientTally struct {
	done, failed int
	latencyNS    []float64
}

func (r *repResult) addTallies(tallies []clientTally) {
	for _, t := range tallies {
		r.ops += t.done
		r.attempted += t.done + t.failed
		r.failed += t.failed
		r.latencyNS = append(r.latencyNS, t.latencyNS...)
	}
}

// restart crashes eng and recovers it n times over — recovery leaves the
// durable state as it found it, so every restart does the same work — and
// returns each recovery's wall time in seconds and the last result.
// Untraced, a restart is one full Engine.Recover.  Traced, it runs once, in
// its two phases — RecoverOnDemand (analysis and chain partitioning) then
// Wait (the redo drain) — under a span each.
func restart(env *repEnv, ln *lane, eng *core.Engine, n int) (seconds []float64, res *recovery.Result, err error) {
	if env.tr != nil {
		eng.Crash()
		t0 := time.Now()
		h := ln.begin("recovery.analysis")
		od, err := eng.RecoverOnDemand()
		ln.end(h)
		if err != nil {
			return nil, nil, err
		}
		h = ln.begin("recovery.drain")
		res, err = od.Wait()
		ln.end(h)
		return []float64{time.Since(t0).Seconds()}, res, err
	}
	for i := 0; i < n; i++ {
		eng.Crash()
		t0 := time.Now()
		if res, err = eng.Recover(); err != nil {
			return nil, nil, err
		}
		seconds = append(seconds, time.Since(t0).Seconds())
	}
	return seconds, res, nil
}

// checkDecisions fails the repetition unless every scanned operation was
// accounted for by exactly one redo decision.
func checkDecisions(r *repResult, res *recovery.Result) {
	r.attempted++
	if got := res.Redone + res.Voided + res.SkippedInstalled + res.SkippedUnexposed; got != res.ScannedOps {
		r.fail(1, "recovery decided %d operations but scanned %d", got, res.ScannedOps)
	}
}

// layersOf derives the traced repetition's per-layer numbers: self and total
// times from the spans, work counts from the engine's public Stats over the
// timed phase, and the restart's decisions.
func layersOf(env *repEnv, r *repResult, clients int, before, after core.Stats, dev deviceCounts, res *recovery.Result) {
	r.spans = env.tr.spans()
	table := selfTimes(r.spans)
	mean := func(name string, self bool) float64 {
		lt := table[name]
		if lt == nil {
			return 0
		}
		if self {
			return lt.SelfUS / float64(lt.Count)
		}
		return lt.TotUS / float64(lt.Count)
	}
	total := func(name string) float64 {
		if lt := table[name]; lt != nil {
			return lt.TotUS
		}
		return 0
	}
	l := map[string]float64{
		"server.self_us":    mean("server.request", true),
		"core.call_us":      mean("core.call", false),
		"wal.force_self_us": mean("wal.force", true),
		"cache.install_us":  mean("cache.install", false),
		// The share of all clients' time spent inside InstallOne, FlushAll
		// and Checkpoint.
		"cache.install_stall_frac": total("cache.install") / 1e6 / (r.timed.Seconds() * float64(clients)),
		"recovery.analysis_s":      total("recovery.analysis") / 1e6,
		"recovery.drain_s":         total("recovery.drain") / 1e6,

		"wal.forces":                 float64(after.Log.Forces - before.Log.Forces),
		"wal.forces_coalesced":       float64(after.Log.ForcesCoalesced - before.Log.ForcesCoalesced),
		"wal.bytes_appended":         float64(after.Log.BytesAppended - before.Log.BytesAppended),
		"cache.installs":             float64(after.Cache.Installs - before.Cache.Installs),
		"cache.identity_writes":      float64(after.Cache.IdentityWrites - before.Cache.IdentityWrites),
		"cache.multi_object_flushes": float64(after.Cache.MultiObjectFlushes - before.Cache.MultiObjectFlushes),
		"stable.object_writes":       float64(after.Store.ObjectWrites - before.Store.ObjectWrites),
		"stable.write_bytes":         float64(after.Store.ObjectWriteBytes - before.Store.ObjectWriteBytes),
	}
	if calls := l["wal.forces"] + l["wal.forces_coalesced"]; calls > 0 {
		l["wal.coalesce_ratio"] = l["wal.forces_coalesced"] / calls
	}
	l["device.appends"], l["device.bytes"], l["device.append_us"] = float64(dev.appends), float64(dev.bytes), dev.appendP50US
	if res != nil {
		l["recovery.redone"] = float64(res.Redone)
		l["recovery.skipped_installed"] = float64(res.SkippedInstalled)
		l["recovery.skipped_unexposed"] = float64(res.SkippedUnexposed)
		if d := l["recovery.analysis_s"] + l["recovery.drain_s"]; d > 0 {
			l["recovery.redo_ops_per_s"] = float64(res.ScannedOps) / d
		}
	}
	r.layers = l
}

// addOpCost feeds ops, un-logged and in order, to a bare write graph and
// returns the mean time of one AddOp in nanoseconds.  After every
// drainEvery operations (0 = never) it removes every node, the way the
// workload's install policy empties the engine's graph, so the graph the
// next AddOp sees is as large as the one the engine's sees.
func addOpCost(ops []*op.Operation, drainEvery int) (float64, error) {
	g := writegraph.New(writegraph.PolicyRW)
	workload.WithLSNs(ops)
	var busy time.Duration
	t0 := time.Now()
	for i, o := range ops {
		if _, err := g.AddOp(o); err != nil {
			return 0, err
		}
		if drainEvery == 0 || (i+1)%drainEvery != 0 {
			continue
		}
		busy += time.Since(t0)
		for g.Len() > 0 {
			minimal := g.Minimal()
			if len(minimal) == 0 {
				return 0, errors.New("write graph has nodes but no minimal node")
			}
			for _, id := range minimal {
				if _, err := g.Remove(id); err != nil {
					return 0, err
				}
			}
		}
		t0 = time.Now()
	}
	busy += time.Since(t0)
	return float64(busy.Nanoseconds()) / float64(len(ops)), nil
}

func putOps(s *kvStore, reqs ...[]kvRequest) []*op.Operation {
	var ops []*op.Operation
	for _, list := range reqs {
		for _, q := range list {
			if q.val != nil {
				ops = append(ops, op.NewPhysicalWrite(s.ids[q.key], q.val))
			}
		}
	}
	return ops
}

// runKVCommit: two closed-loop clients on disjoint key halves; one op is
// Execute(physical write) then Log().Force() — the acknowledgement, where
// latency stops — then one InstallOne by the same client, so the
// uninstalled backlog stays near zero.
func runKVCommit(env *repEnv) (*repResult, error) {
	const clients = 2
	r := &repResult{}
	keys := scaled(kvKeys, env.scale, 2*clients)
	perClient := env.ops / clients
	half := keys / clients
	store := newKVStore(keys, rand.New(rand.NewSource(env.seed)))
	reqs := make([][]kvRequest, clients)
	for c := range reqs {
		rng := rand.New(rand.NewSource(env.seed*16 + int64(c) + 1))
		for i := 0; i < perClient; i++ {
			reqs[c] = append(reqs[c], kvRequest{key: c*half + rng.Intn(half), val: randomValue(rng, kvValueSize)})
		}
	}

	t0 := time.Now()
	file, cleanup, err := walFile(env, "kv-commit")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	eng, td, err := openEngine(env, file, directObs(env))
	if err != nil {
		return nil, err
	}
	if err := store.preload(eng); err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)

	before := eng.Stats()
	td.start()
	lanes := make([]*lane, clients)
	tallies := make([]clientTally, clients)
	r.timed = runClients(clients,
		func(c int) { lanes[c] = env.tr.lane() },
		func(c int) {
			ln, tally := lanes[c], &tallies[c]
			for i, q := range reqs[c] {
				ln.setReq(uint64(c+1)<<32 | uint64(i+1))
				root := ln.begin("bench.op")
				start := time.Now()
				h := ln.begin("core.call")
				err := eng.Execute(op.NewPhysicalWrite(store.ids[q.key], q.val))
				ln.end(h)
				if err == nil {
					h = ln.begin("wal.force")
					err = eng.Log().Force()
					ln.end(h)
				}
				if err == nil {
					tally.latencyNS = append(tally.latencyNS, float64(time.Since(start)))
					store.model[q.key] = q.val
					tally.done++
				} else {
					tally.failed++
				}
				h = ln.begin("cache.install")
				if err := eng.InstallOne(); err != nil {
					tally.failed++
				}
				ln.end(h)
				ln.end(root)
			}
		})
	after, dev := eng.Stats(), td.stop()
	r.addTallies(tallies)
	r.logBytes, r.logOps = after.Log.BytesAppended-before.Log.BytesAppended, r.ops
	nodesEnd := eng.Cache().WriteGraph().Len()
	r.heapInuse = heapAfterGC()

	// Output check: after a crash every key holds its last acknowledged
	// value.
	var res *recovery.Result
	r.recoveries, res, err = restart(env, env.tr.lane(), eng, cheapRestarts)
	if err != nil {
		return nil, err
	}
	checkDecisions(r, res)
	r.attempted += keys
	r.fail(store.verify(func(i int) ([]byte, error) { return eng.Get(store.ids[i]) }),
		"keys do not hold their last acknowledged value after crash and recovery")

	if env.tr != nil {
		layersOf(env, r, clients, before, after, dev, res)
		r.layers["writegraph.nodes_end"] = float64(nodesEnd)
		if r.layers["writegraph.addop_ns"], err = addOpCost(putOps(store, reqs...), 1); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// runKVServe: the server assembled as cmd/llserve assembles it, in process,
// behind a real loopback listener; two connections, one request outstanding
// on each.  The server's own policy applies: acknowledge after append,
// never force, never install.
func runKVServe(env *repEnv) (*repResult, error) {
	const clients = 2
	r := &repResult{}
	keys := scaled(kvKeys, env.scale, 2*clients)
	perClient := env.ops / clients
	half := keys / clients
	store := newKVStore(keys, rand.New(rand.NewSource(env.seed)))
	reqs := make([][]kvRequest, clients)
	puts := 0
	for c := range reqs {
		rng := rand.New(rand.NewSource(env.seed*16 + int64(c) + 1))
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(keys-1))
		for i := 0; i < perClient; i++ {
			q := kvRequest{key: int(zipf.Uint64())}
			if rng.Intn(10) == 0 {
				q.key = c*half + q.key%half
				q.val = randomValue(rng, kvValueSize)
				puts++
			}
			reqs[c] = append(reqs[c], q)
		}
	}

	t0 := time.Now()
	file, cleanup, err := walFile(env, "kv-serve")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	reg := obs.NewRegistry() // llserve always runs with a registry
	eng, td, err := openEngine(env, file, reg)
	if err != nil {
		return nil, err
	}
	if err := store.preload(eng); err != nil {
		return nil, err
	}
	var backend workload.Domain = server.NewKV(eng)
	var traced *tracedDomain
	if env.tr != nil {
		traced = newTracedDomain(backend, env.tr)
		backend = traced
	}
	srv, err := server.New(server.Config{Backend: backend, Obs: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	stop := func() error {
		srv.Shutdown(5 * time.Second)
		return <-served
	}
	conns := make([]*server.Client, clients)
	for c := range conns {
		if conns[c], err = server.Dial(ln.Addr().String()); err != nil {
			_ = stop()
			return nil, err
		}
		if err := conns[c].Ping(); err != nil {
			_ = stop()
			return nil, err
		}
	}
	r.setup = time.Since(t0)

	before := eng.Stats()
	td.start()
	if traced != nil {
		traced.record(true)
	}
	lanes := make([]*lane, clients)
	tallies := make([]clientTally, clients)
	r.timed = runClients(clients,
		func(c int) { lanes[c] = env.tr.lane() },
		func(c int) {
			ln, tally, cl := lanes[c], &tallies[c], conns[c]
			for i, q := range reqs[c] {
				ln.setReq(uint64(c+1)<<32 | uint64(i+1))
				key := store.keys[q.key]
				root := ln.begin("server.request")
				if ln != nil {
					ln.setTag(root, requestTag(q.val != nil, key))
				}
				start := time.Now()
				ok := false
				if q.val != nil {
					if ok = cl.Put(key, q.val) == nil; ok {
						store.model[q.key] = q.val
					}
				} else {
					v, found, err := cl.Get(key)
					// Only this client writes its half, so there the
					// model is exact mid-run; the other half may be
					// changing under the read.
					ok = err == nil && found && len(v) == kvValueSize &&
						(q.key/half != c || bytes.Equal(v, store.model[q.key]))
				}
				lat := time.Since(start)
				ln.end(root)
				if ok {
					tally.latencyNS = append(tally.latencyNS, float64(lat))
					tally.done++
				} else {
					tally.failed++
				}
			}
		})
	after, dev := eng.Stats(), td.stop()
	if traced != nil {
		traced.record(false)
	}
	r.addTallies(tallies)
	r.logBytes, r.logOps = after.Log.BytesAppended-before.Log.BytesAppended, puts
	nodesEnd := eng.Cache().WriteGraph().Len()
	snap := reg.Snapshot()
	r.heapInuse = heapAfterGC()

	// Output check 1: every key read back through a connection equals the
	// per-connection model, and the server's own Check passes.
	r.attempted += keys + 1
	r.fail(store.verify(func(i int) ([]byte, error) {
		v, found, err := conns[0].Get(store.keys[i])
		if err == nil && !found {
			err = cache.ErrNotFound
		}
		return v, err
	}), "keys read back through the server differ from the model")
	if err := conns[0].Check(); err != nil {
		r.fail(1, "server Check: %v", err)
	}
	for _, cl := range conns {
		_ = cl.Close()
	}
	if err := stop(); err != nil {
		return nil, err
	}

	// Output check 2 and recovery_s: what llserve does on a clean exit
	// (force the tail), then a crash and a restart; every acknowledged put
	// must have survived.
	if err := eng.Log().Force(); err != nil {
		return nil, err
	}
	var res *recovery.Result
	r.recoveries, res, err = restart(env, env.tr.lane(), eng, 1)
	if err != nil {
		return nil, err
	}
	checkDecisions(r, res)
	r.attempted += keys
	r.fail(store.verify(func(i int) ([]byte, error) { return eng.Get(store.ids[i]) }),
		"keys do not hold their last acknowledged value after crash and recovery")

	if env.tr != nil {
		layersOf(env, r, clients, before, after, dev, res)
		r.layers["writegraph.nodes_end"] = float64(nodesEnd)
		r.layers["server.refused"] = float64(snap.Counters["server.refused"])
		r.layers["server.admission_wait_ns"] = histogramP50(snap.Histograms["server.admission_wait_ns"])
		if r.layers["writegraph.addop_ns"], err = addOpCost(putOps(store, reqs...), 0); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// histogramP50 returns the upper edge of the bucket holding the median
// observation, 0 for an empty histogram.
func histogramP50(h obs.HistogramSnapshot) float64 {
	var seen int64
	for _, b := range h.Buckets {
		seen += b.Count
		if 2*seen >= h.Count {
			return float64(b.High)
		}
	}
	return 0
}

// logicalOps generates the bootstrap creates and n steps of the logical
// mix.  Operations are used once: executing or adding one assigns its LSN.
func logicalOps(seed int64, n int) (bootstrap, steps []*op.Operation, err error) {
	g, err := workload.NewGenerator(logicalSpec(seed))
	if err != nil {
		return nil, nil, err
	}
	bootstrap = g.Bootstrap()
	for i := 0; i < n; i++ {
		steps = append(steps, g.Next())
	}
	return bootstrap, steps, nil
}

// objectsOf returns every live object and its value.
func objectsOf(eng *core.Engine) (map[op.ObjectID][]byte, error) {
	ids, err := eng.Objects("", "")
	if err != nil {
		return nil, err
	}
	out := make(map[op.ObjectID][]byte, len(ids))
	for _, id := range ids {
		v, err := eng.Get(id)
		if err != nil {
			return nil, err
		}
		out[id] = append([]byte(nil), v...)
	}
	return out, nil
}

// differing counts the objects present in only one of a and b or holding
// different bytes.
func differing(a, b map[op.ObjectID][]byte) int {
	n := 0
	for id, v := range a {
		if w, ok := b[id]; !ok || !bytes.Equal(v, w) {
			n++
		}
	}
	for id := range b {
		if _, ok := a[id]; !ok {
			n++
		}
	}
	return n
}

// bootstrapEngine runs the bootstrap creates and installs them.
func bootstrapEngine(eng *core.Engine, bootstrap []*op.Operation) error {
	for _, o := range bootstrap {
		if err := eng.Execute(o); err != nil {
			return err
		}
	}
	if err := eng.Log().Force(); err != nil {
		return err
	}
	return eng.FlushAll()
}

// runLogicalMix: one client, CPU-bound on a memory device.  Force and
// FlushAll every 64 operations, Checkpoint (with truncation) every 4096.
func runLogicalMix(env *repEnv) (*repResult, error) {
	r := &repResult{}
	n := env.ops
	bootstrap, steps, err := logicalOps(env.seed, n)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	eng, td, err := openEngine(env, wal.NewMemDevice(), directObs(env))
	if err != nil {
		return nil, err
	}
	if err := bootstrapEngine(eng, bootstrap); err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)

	before := eng.Stats()
	td.start()
	ln := env.tr.lane()
	r.latencyNS = make([]float64, 0, n)
	install := func(call func() error) {
		h := ln.begin("cache.install")
		if err := call(); err != nil {
			r.fail(1, "install: %v", err)
		}
		ln.end(h)
	}
	start := time.Now()
	for i, o := range steps {
		ln.setReq(uint64(i + 1))
		root := ln.begin("bench.op")
		opStart := time.Now()
		h := ln.begin("core.call")
		err := eng.Execute(o)
		ln.end(h)
		if err == nil {
			r.latencyNS = append(r.latencyNS, float64(time.Since(opStart)))
			r.ops++
		} else {
			r.fail(1, "execute %s: %v", o, err)
		}
		if (i+1)%installEvery == 0 {
			h = ln.begin("wal.force")
			if err := eng.Log().Force(); err != nil {
				r.fail(1, "force: %v", err)
			}
			ln.end(h)
			install(eng.FlushAll)
		}
		if (i+1)%checkpointEvery == 0 {
			install(eng.Checkpoint)
		}
		ln.end(root)
	}
	r.timed = time.Since(start)
	after, dev := eng.Stats(), td.stop()
	r.attempted += n
	r.logBytes, r.logOps = after.Log.BytesAppended-before.Log.BytesAppended, r.ops
	nodesEnd := eng.Cache().WriteGraph().Len()
	r.heapInuse = heapAfterGC()

	// Output check: force the tail, snapshot every object, crash, recover,
	// and require byte identity.
	if err := eng.Log().Force(); err != nil {
		return nil, err
	}
	want, err := objectsOf(eng)
	if err != nil {
		return nil, err
	}
	var res *recovery.Result
	r.recoveries, res, err = restart(env, ln, eng, cheapRestarts)
	if err != nil {
		return nil, err
	}
	checkDecisions(r, res)
	got, err := objectsOf(eng)
	if err != nil {
		return nil, err
	}
	r.attempted += len(want)
	r.fail(differing(want, got), "objects differ after crash and recovery")

	if env.tr != nil {
		layersOf(env, r, 1, before, after, dev, res)
		r.layers["writegraph.nodes_end"] = float64(nodesEnd)
		fresh, freshSteps, err := logicalOps(env.seed, n)
		if err != nil {
			return nil, err
		}
		// The creates go in first and are drained with the first batch.
		if r.layers["writegraph.addop_ns"], err = addOpCost(append(fresh, freshSteps...), installEvery); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// crashedImage is the durable state a crash left behind.
type crashedImage struct {
	log   []byte
	store map[op.ObjectID]stable.Versioned
	want  map[op.ObjectID][]byte // the objects as they were before the crash
}

// open copies the image into a fresh device and store.
func (img *crashedImage) open(env *repEnv) (wal.Device, *tracedDevice, *stable.Store, error) {
	mem := wal.NewMemDevice()
	if err := mem.Append(img.log); err != nil {
		return nil, nil, nil, err
	}
	store := stable.NewStore()
	store.Restore(img.store)
	if env.tr == nil {
		return mem, nil, store, nil
	}
	td := &tracedDevice{Device: mem, t: env.tr}
	return td, td, store, nil
}

// runRecoverMix: set-up builds one crashed image — the logical mix's
// bootstrap installed and checkpointed, then 8000 uninstalled steps and a
// final force — and the timed phase restarts from a copy of it three times
// with core.Adopt, RedoWorkers left at 0.
func runRecoverMix(env *repEnv) (*repResult, error) {
	r := &repResult{}
	n := env.ops
	bootstrap, steps, err := logicalOps(env.seed, n)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	mem := wal.NewMemDevice()
	opts := core.DefaultOptions()
	opts.LogDevice = mem
	builder, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	if err := bootstrapEngine(builder, bootstrap); err != nil {
		return nil, err
	}
	if err := builder.CheckpointOnly(); err != nil {
		return nil, err
	}
	before := builder.Stats()
	for _, o := range steps {
		if err := builder.Execute(o); err != nil {
			return nil, err
		}
	}
	if err := builder.Log().Force(); err != nil {
		return nil, err
	}
	img := &crashedImage{store: builder.Store().Snapshot()}
	if img.log, err = mem.ReadAll(); err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)
	r.logBytes, r.logOps = builder.Stats().Log.BytesAppended-before.Log.BytesAppended, n
	if img.want, err = objectsOf(builder); err != nil {
		return nil, err
	}

	ln := env.tr.lane()
	var last *recovery.Result
	var adopted *core.Engine
	var statsAfter core.Stats
	var devCounts deviceCounts
	for i := 0; i < adoptsPerImage; i++ {
		dev, traced, store, err := img.open(env)
		if err != nil {
			return nil, err
		}
		log, err := wal.New(dev)
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions()
		opts.Obs = directObs(env)
		traced.start()
		ln.setReq(uint64(i + 1))
		root := ln.begin("bench.op")
		start := time.Now()
		h := ln.begin("recovery.adopt")
		eng, res, err := core.Adopt(opts, log, store)
		ln.end(h)
		d := time.Since(start)
		ln.end(root)
		r.attempted++
		if err != nil {
			r.fail(1, "adopt: %v", err)
			continue
		}
		r.timed += d
		r.ops += res.ScannedOps
		r.rates = append(r.rates, float64(res.ScannedOps)/d.Seconds())
		r.recoveries = append(r.recoveries, d.Seconds())
		// There is no request to time on a restart; the per-operation
		// figure is what one logged operation adds to it.
		r.latencyNS = append(r.latencyNS, float64(d)/float64(res.ScannedOps))
		last, adopted, devCounts, statsAfter = res, eng, traced.stop(), eng.Stats()

		// Output check: the adopted engine equals the pre-crash state.
		checkDecisions(r, res)
		got, err := objectsOf(eng)
		if err != nil {
			return nil, err
		}
		r.attempted += len(img.want)
		r.fail(differing(img.want, got), "adopted objects differ from the pre-crash values")
	}
	if last == nil {
		return r, nil
	}
	r.heapInuse = heapAfterGC()

	if env.tr != nil {
		// The same restart on a twin image, in its two phases.
		dev, _, _, err := img.open(env)
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions()
		opts.LogDevice = dev
		opts.Obs = directObs(env)
		twin, err := core.New(opts)
		if err != nil {
			return nil, err
		}
		twin.Store().Restore(img.store)
		_, res, err := restart(env, ln, twin, 1)
		if err != nil {
			return nil, err
		}
		layersOf(env, r, 1, core.Stats{}, statsAfter, devCounts, res)
		r.layers["writegraph.nodes_end"] = float64(adopted.Cache().WriteGraph().Len())
		_, fresh, err := logicalOps(env.seed, n)
		if err != nil {
			return nil, err
		}
		if r.layers["writegraph.addop_ns"], err = addOpCost(fresh, 0); err != nil {
			return nil, err
		}
	}
	return r, nil
}
