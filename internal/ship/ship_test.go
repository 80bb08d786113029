package ship_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"logicallog/internal/backup"
	"logicallog/internal/core"
	"logicallog/internal/fault"
	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	"logicallog/internal/ship"
	"logicallog/internal/sim"
	"logicallog/internal/wal"
)

// workload is a deterministic random op stream, tracking liveness so every
// generated operation is valid against the primary's current state.
type workload struct {
	rng     *rand.Rand
	objects []op.ObjectID
	live    map[op.ObjectID]bool
}

func newWorkload(seed int64, n int) *workload {
	w := &workload{rng: rand.New(rand.NewSource(seed)), live: make(map[op.ObjectID]bool)}
	for i := 0; i < n; i++ {
		w.objects = append(w.objects, op.ObjectID(fmt.Sprintf("obj%02d", i)))
	}
	return w
}

func (w *workload) step() *op.Operation {
	var liveNow, dead []op.ObjectID
	for _, x := range w.objects {
		if w.live[x] {
			liveNow = append(liveNow, x)
		} else {
			dead = append(dead, x)
		}
	}
	val := func() []byte {
		v := make([]byte, 16)
		w.rng.Read(v)
		return v
	}
	if len(liveNow) < 2 && len(dead) > 0 {
		return op.NewCreate(dead[w.rng.Intn(len(dead))], val())
	}
	if w.rng.Intn(100) < 5 && len(liveNow) > 2 {
		return op.NewDelete(liveNow[w.rng.Intn(len(liveNow))])
	}
	x := liveNow[w.rng.Intn(len(liveNow))]
	y := liveNow[w.rng.Intn(len(liveNow))]
	switch w.rng.Intn(6) {
	case 0:
		return op.NewPhysicalWrite(x, val())
	case 1:
		return op.NewPhysioWrite(x, op.FuncAppend, []byte{byte(w.rng.Intn(256))})
	case 2, 3:
		if x == y {
			return op.NewPhysioWrite(x, op.FuncAppend, []byte{1})
		}
		return op.NewLogical(op.FuncXor, op.EncodeParams([]byte(y), []byte(x)),
			[]op.ObjectID{x, y}, []op.ObjectID{y})
	default:
		if x == y {
			return op.NewPhysioWrite(x, op.FuncAppend, []byte{2})
		}
		return op.NewLogical(op.FuncCopy, []byte(x), []op.ObjectID{y}, []op.ObjectID{x})
	}
}

func (w *workload) execute(t *testing.T, eng *core.Engine) {
	t.Helper()
	o := w.step()
	if err := eng.Execute(o); err != nil {
		t.Fatalf("execute %s: %v", o, err)
	}
	for _, x := range o.WriteSet {
		w.live[x] = o.Kind != op.KindDelete
	}
}

// drive runs steps workload steps against eng with periodic installs,
// checkpoints, and forces, calling after (if non-nil) after every step.
func drive(t *testing.T, eng *core.Engine, w *workload, steps int, after func(step int)) {
	t.Helper()
	for i := 0; i < steps; i++ {
		if w.rng.Intn(5) == 0 {
			if err := eng.InstallOne(); err != nil {
				t.Fatalf("install: %v", err)
			}
		}
		if w.rng.Intn(19) == 0 {
			if err := eng.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
		if w.rng.Intn(9) == 0 {
			if err := eng.Log().Force(); err != nil {
				t.Fatalf("force: %v", err)
			}
		}
		w.execute(t, eng)
		if after != nil {
			after(i)
		}
	}
}

// finishAndPromote forces the primary's tail, syncs the stream, crashes the
// primary, promotes the standby, and verifies the promoted engine against the
// primary's history at the durable horizon — the replication correctness
// claim.
func finishAndPromote(t *testing.T, eng *core.Engine, s *ship.Sender, sb *ship.Standby) *core.Engine {
	t.Helper()
	if err := eng.Log().Force(); err != nil {
		t.Fatalf("final force: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	horizon := eng.Log().StableLSN()
	if got := sb.Applied(); got != horizon {
		t.Fatalf("standby applied %d, primary stable %d", got, horizon)
	}
	// The sender ships the frames on the primary's device verbatim, so over
	// the range both logs hold durably, the standby's device bytes are the
	// primary's.
	from := max(eng.Log().FirstLSN(), sb.Log().FirstLSN())
	primary, standby := durableFrames(t, eng.Log(), from), durableFrames(t, sb.Log(), from)
	if len(standby) == 0 || !bytes.HasPrefix(primary, standby) {
		t.Fatalf("standby log (%d bytes) is not a prefix of the primary's (%d bytes) from LSN %d", len(standby), len(primary), from)
	}
	hist := eng.History()
	eng.Crash()
	promoted, res, err := sb.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if res == nil {
		t.Fatal("promote returned nil recovery result")
	}
	if err := sim.VerifyHistory(promoted.Registry(), hist, promoted, horizon); err != nil {
		t.Fatalf("promoted standby diverged from primary history: %v", err)
	}
	return promoted
}

// durableFrames returns the frames of log's durable records with LSN >= from,
// as they lie on its device.
func durableFrames(t *testing.T, log *wal.Log, from op.SI) []byte {
	t.Helper()
	sc, err := log.Scan(from)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, fr, ok := sc.NextFrame(); ok; _, fr, ok = sc.NextFrame() {
		out = append(out, fr...)
	}
	return out
}

func newPair(t *testing.T, opts core.Options, plan *fault.Plan, batch int) (*core.Engine, *ship.Standby, *ship.Sender) {
	t.Helper()
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ship.NewStandby(ship.StandbyConfig{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	link := ship.NewLink(sb, plan)
	s := ship.NewSender(eng.Log(), link, 1, ship.SenderConfig{BatchRecords: batch})
	return eng, sb, s
}

// TestShipAllConfigs mirrors a full workload into a standby under every
// explorer configuration and checks the promoted standby equals the primary.
func TestShipAllConfigs(t *testing.T) {
	for _, cfg := range sim.ExplorerConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			eng, sb, s := newPair(t, cfg.Opts, nil, 4)
			defer s.Close()
			w := newWorkload(41, 6)
			drive(t, eng, w, 80, func(step int) {
				if step%3 == 0 {
					if err := s.PumpAll(); err != nil {
						t.Fatalf("pump at step %d: %v", step, err)
					}
				}
			})
			promoted := finishAndPromote(t, eng, s, sb)

			// The promoted engine is a working primary: it can keep going.
			if err := promoted.Execute(op.NewPhysioWrite(firstLive(t, promoted), op.FuncAppend, []byte{9})); err != nil {
				t.Fatalf("promoted engine cannot execute: %v", err)
			}
			if err := promoted.FlushAll(); err != nil {
				t.Fatalf("promoted engine cannot flush: %v", err)
			}
		})
	}
}

func firstLive(t *testing.T, eng *core.Engine) op.ObjectID {
	t.Helper()
	for i := 0; i < 8; i++ {
		x := op.ObjectID(fmt.Sprintf("obj%02d", i))
		if _, err := eng.Get(x); err == nil {
			return x
		}
	}
	t.Fatal("no live object on promoted engine")
	return ""
}

// TestShipBootstrapFromBackup starts the stream mid-run from a fuzzy backup:
// the standby's store is the image, replay starts at the backup horizon, and
// the vSI witness skips what the image already reflects.
func TestShipBootstrapFromBackup(t *testing.T) {
	for _, cfg := range sim.ExplorerConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			eng, err := core.New(cfg.Opts)
			if err != nil {
				t.Fatal(err)
			}
			w := newWorkload(97, 6)
			drive(t, eng, w, 40, nil)

			// Fuzzy backup: keep executing between object copies.
			b, err := backup.Take(eng, func(int) error {
				w.execute(t, eng)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			release := b.RegisterRetention(eng.Log())
			defer release()

			sb, err := ship.Bootstrap(ship.StandbyConfig{Opts: cfg.Opts}, b)
			if err != nil {
				t.Fatal(err)
			}
			s := ship.NewSender(eng.Log(), ship.NewLink(sb, nil), b.StartLSN, ship.SenderConfig{BatchRecords: 8})
			defer s.Close()

			drive(t, eng, w, 40, func(step int) {
				if step%4 == 0 {
					if err := s.PumpAll(); err != nil {
						t.Fatalf("pump: %v", err)
					}
				}
			})
			st := sb.Stats()
			promoted := finishAndPromote(t, eng, s, sb)
			_ = promoted
			if cfg.Opts.LogInstalls && st.SkippedInstalled == 0 && st.SkippedUnexposed == 0 && st.Dups == 0 {
				// Not fatal — just record that the witness path went unused.
				t.Logf("bootstrap applied everything (no witness skips): %+v", st)
			}
		})
	}
}

// TestShipFaultConvergence injects drop, dup, reorder, and transient faults
// into the ship channel and checks the cursor/ack protocol converges to an
// identical standby anyway.
func TestShipFaultConvergence(t *testing.T) {
	tokens := []string{
		"ship@1:drop",
		"ship@2:dup",
		"ship@3:reorder=0",
		"ship@1:eio",
		"ship@0:drop+ship@2:drop+ship@3:dup+ship@5:reorder=0+ship@7:eio+ship@11:drop",
	}
	for _, token := range tokens {
		token := token
		t.Run(strings.ReplaceAll(token, "+", " "), func(t *testing.T) {
			t.Parallel()
			pts, err := fault.ParseToken(token)
			if err != nil {
				t.Fatal(err)
			}
			plan := fault.NewPlan(pts...)
			eng, sb, s := newPair(t, core.DefaultOptions(), plan, 3)
			defer s.Close()
			w := newWorkload(7, 5)
			drive(t, eng, w, 60, func(step int) {
				if err := s.PumpAll(); err != nil {
					t.Fatalf("pump: %v", err)
				}
			})
			finishAndPromote(t, eng, s, sb)
			if plan.Dead() {
				t.Fatal("ship faults must not kill the plan")
			}
			if strings.Contains(token, "drop") && s.Resyncs() == 0 {
				t.Error("dropped batches should have forced at least one resync")
			}
		})
	}
}

// TestShipLinkSeverAndCatchUp severs the link with a ship crash fault,
// verifies Sync reports the stall, then reconnects and catches up.
func TestShipLinkSeverAndCatchUp(t *testing.T) {
	pts, err := fault.ParseToken("ship@2:crash")
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(pts...)
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ship.NewStandby(ship.StandbyConfig{Opts: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	link := ship.NewLink(sb, plan)
	s := ship.NewSender(eng.Log(), link, 1, ship.SenderConfig{BatchRecords: 2})
	defer s.Close()

	w := newWorkload(13, 5)
	drive(t, eng, w, 40, func(step int) {
		if err := s.PumpAll(); err != nil {
			t.Fatalf("pump: %v", err)
		}
	})
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	if !link.Down() {
		t.Fatal("ship@2:crash should have severed the link")
	}
	if err := s.Sync(); err == nil {
		t.Fatal("sync over a severed link should stall out")
	}
	link.Reconnect()
	finishAndPromote(t, eng, s, sb)
}

// TestShipStandbyCrashRestart crashes the standby mid-stream (losing its
// unforced tail and volatile apply state), restarts it, and checks the
// ack-driven rewind resends what was lost.
func TestShipStandbyCrashRestart(t *testing.T) {
	for _, cfg := range sim.ExplorerConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			eng, sb, s := newPair(t, cfg.Opts, nil, 4)
			defer s.Close()
			w := newWorkload(29, 6)
			crashed := false
			drive(t, eng, w, 70, func(step int) {
				if err := s.PumpAll(); err != nil {
					t.Fatalf("pump: %v", err)
				}
				if step == 35 {
					sb.Crash()
					if _, err := sb.Deliver(&ship.Batch{}); err == nil {
						t.Fatal("a crashed standby must reject deliveries")
					}
					if err := sb.Restart(); err != nil {
						t.Fatalf("restart: %v", err)
					}
					crashed = true
				}
			})
			if !crashed {
				t.Fatal("crash step never ran")
			}
			finishAndPromote(t, eng, s, sb)
		})
	}
}

// TestShipStandbyRestartTrimsTornTail tears the standby's third log append
// after 5 bytes, which takes it down.  Healed and restarted, it must trim
// that debris: its later forces would otherwise land behind it, where no
// reader's end of the log reaches, and the next restart would lose every
// record it had acknowledged as durable since.
func TestShipStandbyRestartTrimsTornTail(t *testing.T) {
	opts := core.DefaultOptions()
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(fault.Point{Chan: fault.ChanWAL, Index: 2, Kind: fault.KindTorn, Arg: 5})
	sopts := opts
	sopts.LogDevice = plan.WrapDevice(wal.NewMemDevice())
	sb, err := ship.NewStandby(ship.StandbyConfig{Opts: sopts})
	if err != nil {
		t.Fatal(err)
	}
	s := ship.NewSender(eng.Log(), ship.NewLink(sb, nil), 1, ship.SenderConfig{BatchRecords: 4})
	defer s.Close()
	w := newWorkload(61, 6)
	torn := false
	drive(t, eng, w, 60, func(step int) {
		err := s.PumpAll()
		if err == nil {
			return
		}
		if torn || !errors.Is(err, ship.ErrDown) {
			t.Fatalf("pump at step %d: %v", step, err)
		}
		torn = true
		plan.Heal()
		if err := sb.Restart(); err != nil {
			t.Fatalf("restart after the torn append: %v", err)
		}
	})
	if !torn {
		t.Fatal("the standby's third log append never ran")
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	durable := sb.Log().StableLSN()
	sb.Crash()
	if err := sb.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := sb.Log().StableLSN(); got < durable {
		t.Fatalf("the standby acknowledged LSN %d as durable, but holds only %d after a restart", durable, got)
	}
	drive(t, eng, w, 10, func(step int) {
		if err := s.PumpAll(); err != nil {
			t.Fatalf("pump after restart at step %d: %v", step, err)
		}
	})
	finishAndPromote(t, eng, s, sb)
}

// TestShipSyncAfterStandbyRestart crashes and restarts the standby right
// after a Sync.  The crash loses the applied records the standby had not
// forced, so the horizons the sender cached from its last ack are stale: the
// next Sync must probe the standby, rewind to what it lost and resend it
// before it returns, and the promoted standby must hold the primary's whole
// durable history.
func TestShipSyncAfterStandbyRestart(t *testing.T) {
	eng, sb, s := newPair(t, core.DefaultOptions(), nil, 4)
	defer s.Close()
	w := newWorkload(61, 6)
	drive(t, eng, w, 60, func(int) {
		if err := s.PumpAll(); err != nil {
			t.Fatalf("pump: %v", err)
		}
	})
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if sb.Log().StableLSN() >= sb.Applied() {
		t.Fatalf("the standby forced everything it applied (LSN %d); the crash loses nothing", sb.Applied())
	}
	sb.Crash()
	if err := sb.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	finishAndPromote(t, eng, s, sb)
}

// TestShipFailedMirroredInstallTakesStandbyDown fails the standby's stable
// store permanently under a mirrored install.  The shipped record is already
// in the standby's log by then, so the apply horizon can never take a resend;
// the standby must go down — explicitly, with ErrDown on every redelivery —
// and come back through Restart, which replays the durable log (that record
// included) through the same installation step once the store has healed.
func TestShipFailedMirroredInstallTakesStandbyDown(t *testing.T) {
	eng, sb, s := newPair(t, core.DefaultOptions(), nil, 4)
	defer s.Close()
	w := newWorkload(53, 6)
	drive(t, eng, w, 30, func(step int) {
		if err := s.PumpAll(); err != nil {
			t.Fatalf("pump at step %d: %v", step, err)
		}
	})

	boom := errors.New("stable device gone")
	sb.Store().SetWriteProbe(func() error { return boom })
	var downErr error
	drive(t, eng, w, 30, func(int) {
		if downErr == nil {
			downErr = s.PumpAll()
		}
	})
	if !errors.Is(downErr, ship.ErrDown) || !errors.Is(downErr, boom) {
		t.Fatalf("pump over a failing mirrored install = %v, want ErrDown wrapping the store failure", downErr)
	}
	if ack, err := sb.Deliver(&ship.Batch{}); !errors.Is(err, ship.ErrDown) || !ack.Lost {
		t.Fatalf("redelivery to the downed standby = %+v, %v, want a lost ack and ErrDown", ack, err)
	}
	if err := s.Sync(); !errors.Is(err, ship.ErrDown) {
		t.Fatalf("sync to the downed standby = %v, want ErrDown", err)
	}
	if _, _, err := sb.Promote(); err == nil {
		t.Fatal("a downed standby must not promote")
	}

	// Restart while the store is still broken stays down; healed, it is the
	// way back.
	if err := sb.Restart(); !errors.Is(err, boom) {
		t.Fatalf("restart over the broken store = %v, want the store failure", err)
	}
	if _, err := sb.Deliver(&ship.Batch{}); !errors.Is(err, ship.ErrDown) {
		t.Fatalf("delivery after a failed restart = %v, want ErrDown", err)
	}
	sb.Store().SetWriteProbe(nil)
	if err := sb.Restart(); err != nil {
		t.Fatalf("restart after heal: %v", err)
	}
	drive(t, eng, w, 20, func(step int) {
		if err := s.PumpAll(); err != nil {
			t.Fatalf("pump after restart at step %d: %v", step, err)
		}
	})
	finishAndPromote(t, eng, s, sb)
}

// applyState renders a standby's volatile apply state: every object's cached
// value and vSI, the dirty count, and the write graph's node groupings (each
// node's uninstalled operation LSNs and flush set, order-independent of node
// ids).
func applyState(sb *ship.Standby, objects []op.ObjectID) string {
	mgr := sb.CacheForTest()
	var b strings.Builder
	for _, x := range objects {
		v, err := mgr.Get(x)
		fmt.Fprintf(&b, "%s=%x@%d (%v)\n", x, v, mgr.CurrentVSI(x), err)
	}
	fmt.Fprintf(&b, "dirty=%d\n", mgr.DirtyCount())
	var nodes []string
	for _, n := range mgr.WriteGraph().Nodes() {
		var lsns []op.SI
		for _, o := range n.Ops {
			lsns = append(lsns, o.LSN)
		}
		nodes = append(nodes, fmt.Sprintf("ops=%v vars=%v notx=%v", lsns, n.Vars, n.Notx))
	}
	sort.Strings(nodes)
	b.WriteString(strings.Join(nodes, "\n"))
	return b.String()
}

// TestShipRestartMatchesUninterruptedApply feeds one primary's stream to two
// standbys and crashes and restarts one of them mid-stream.  Restart replays
// the durable log through the same per-record body live apply uses, so once
// the resend catches the restarted standby up, its cached state and
// write-graph groupings must equal the uninterrupted standby's.
func TestShipRestartMatchesUninterruptedApply(t *testing.T) {
	for _, cfg := range sim.ExplorerConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			eng, steady, s1 := newPair(t, cfg.Opts, nil, 4)
			defer s1.Close()
			bounced, err := ship.NewStandby(ship.StandbyConfig{Opts: cfg.Opts})
			if err != nil {
				t.Fatal(err)
			}
			s2 := ship.NewSender(eng.Log(), ship.NewLink(bounced, nil), 1, ship.SenderConfig{BatchRecords: 4})
			defer s2.Close()
			w := newWorkload(31, 6)
			drive(t, eng, w, 70, func(step int) {
				for _, s := range []*ship.Sender{s1, s2} {
					if err := s.PumpAll(); err != nil {
						t.Fatalf("pump: %v", err)
					}
				}
				if step == 20 || step == 45 {
					bounced.Crash()
					if err := bounced.Restart(); err != nil {
						t.Fatalf("restart: %v", err)
					}
				}
			})
			if err := eng.Log().Force(); err != nil {
				t.Fatal(err)
			}
			for _, s := range []*ship.Sender{s1, s2} {
				if err := s.Sync(); err != nil {
					t.Fatalf("sync: %v", err)
				}
			}
			if steady.Applied() != bounced.Applied() {
				t.Fatalf("applied horizons differ: %d vs %d", steady.Applied(), bounced.Applied())
			}
			if want, got := applyState(steady, w.objects), applyState(bounced, w.objects); got != want {
				t.Errorf("restarted standby diverged from uninterrupted apply:\n--- uninterrupted\n%s\n--- restarted\n%s", want, got)
			}
		})
	}
}

// TestShipBootstrappedStandbyCrashBeforeForce is the fresh-log edge case: a
// bootstrapped standby (origin far above 1) crashes before anything was
// forced, so its restarted log is empty and the first resent record must
// re-adopt the stream origin.
func TestShipBootstrappedStandbyCrashBeforeForce(t *testing.T) {
	opts := core.DefaultOptions()
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorkload(53, 5)
	drive(t, eng, w, 30, nil)
	// Install everything first, so the backup's origin is past every
	// install and checkpoint record and the stream starts with operations.
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	b, err := backup.Take(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	release := b.RegisterRetention(eng.Log())
	defer release()
	if b.StartLSN <= 1 {
		t.Fatalf("backup StartLSN %d: workload produced no horizon", b.StartLSN)
	}

	sb, err := ship.Bootstrap(ship.StandbyConfig{Opts: opts}, b)
	if err != nil {
		t.Fatal(err)
	}
	s := ship.NewSender(eng.Log(), ship.NewLink(sb, nil), b.StartLSN, ship.SenderConfig{BatchRecords: 64})
	defer s.Close()

	// Ship operations only (no install/flush/checkpoint record, so nothing
	// forces the standby's log), then crash it.
	for i := 0; i < 5; i++ {
		w.execute(t, eng)
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	if err := s.PumpAll(); err != nil {
		t.Fatal(err)
	}
	if got := sb.Want(); got <= b.StartLSN {
		t.Fatalf("standby applied nothing: wants %d, origin %d", got, b.StartLSN)
	}
	if got := sb.Log().StableLSN(); got != 0 {
		t.Fatalf("the standby forced its log through %d before the crash (origin %d)", got, b.StartLSN)
	}
	sb.Crash()
	if err := sb.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := sb.Want(); got != b.StartLSN {
		t.Fatalf("restarted standby wants %d; origin %d", got, b.StartLSN)
	}
	drive(t, eng, w, 30, func(step int) {
		if err := s.PumpAll(); err != nil {
			t.Fatalf("pump: %v", err)
		}
	})
	finishAndPromote(t, eng, s, sb)
}

// TestShipBootstrapRetainsFromOrigin: a bootstrapped standby that has
// applied operations but forced nothing still holds every record below its
// origin in its image, so the sender's retention hook lets the primary
// truncate its log up to that origin.
func TestShipBootstrapRetainsFromOrigin(t *testing.T) {
	opts := core.DefaultOptions()
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorkload(53, 5)
	drive(t, eng, w, 30, nil)
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	b, err := backup.Take(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ship.Bootstrap(ship.StandbyConfig{Opts: opts}, b)
	if err != nil {
		t.Fatal(err)
	}
	s := ship.NewSender(eng.Log(), ship.NewLink(sb, nil), b.StartLSN, ship.SenderConfig{BatchRecords: 64})
	defer s.Close()
	for i := 0; i < 5; i++ {
		w.execute(t, eng) // operations only: nothing the standby must force
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	if err := s.PumpAll(); err != nil {
		t.Fatal(err)
	}
	if got := sb.Log().StableLSN(); got != 0 {
		t.Fatalf("the standby forced its log through %d", got)
	}
	if err := eng.Log().Truncate(b.StartLSN); err != nil {
		t.Fatal(err)
	}
	if first := eng.Log().FirstLSN(); first != b.StartLSN {
		t.Fatalf("primary log truncated to %d, want the standby's origin %d", first, b.StartLSN)
	}
	drive(t, eng, w, 30, func(int) {
		if err := s.PumpAll(); err != nil {
			t.Fatalf("pump: %v", err)
		}
	})
	finishAndPromote(t, eng, s, sb)
}

// TestShipRetentionProtectsLaggingStandby checks the sender's registered
// retention hook: checkpoint truncation on the primary is clamped so a
// lagging standby can always be caught up — it is never stranded.
func TestShipRetentionProtectsLaggingStandby(t *testing.T) {
	opts := core.DefaultOptions()
	eng, sb, s := newPair(t, opts, nil, 8)
	defer s.Close()

	// Run a workload with checkpoints while shipping nothing at all.
	w := newWorkload(71, 6)
	for i := 0; i < 60; i++ {
		if w.rng.Intn(4) == 0 {
			if err := eng.InstallOne(); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 9 {
			if err := eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		w.execute(t, eng)
	}
	if first := eng.Log().FirstLSN(); first > 1 {
		t.Fatalf("truncation advanced to %d past the standby's horizon 1", first)
	}
	if clamped := eng.Stats().Log.TruncationsClamped; clamped == 0 {
		t.Fatal("checkpoints never clamped truncation; retention hook unused")
	}

	// The lagging standby catches up from LSN 1 and promotes correctly.
	finishAndPromote(t, eng, s, sb)

	// Negative control: with the hook released, the same pattern truncates
	// the log past LSN 1 and a fresh unshipped standby is stranded.
	eng2, sb2, s2 := newPair(t, opts, nil, 8)
	s2.Close() // releases the retention hook immediately
	_ = sb2
	w2 := newWorkload(71, 6)
	for i := 0; i < 60; i++ {
		if w2.rng.Intn(4) == 0 {
			if err := eng2.InstallOne(); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 9 {
			if err := eng2.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		w2.execute(t, eng2)
	}
	if eng2.Log().FirstLSN() <= 1 {
		t.Skip("workload never truncated; cannot exercise the stranded path")
	}
	if _, err := s2.Pump(); err == nil {
		t.Fatal("pump after unprotected truncation should report a stranded standby")
	}
}

// TestShipMetrics checks the replication pipeline is visible end to end:
// sender lag gauges and batch counters, standby apply/promotion metrics, and
// their presence in the promoted engine's merged Metrics() snapshot.
func TestShipMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	fl := flight.NewRecorder(1 << 14)
	opts := core.DefaultOptions()
	opts.Obs = reg
	opts.Flight = fl
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ship.NewStandby(ship.StandbyConfig{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	s := ship.NewSender(eng.Log(), ship.NewLink(sb, nil), 1,
		ship.SenderConfig{BatchRecords: 4, Obs: reg, Flight: fl})
	defer s.Close()

	w := newWorkload(3, 5)
	drive(t, eng, w, 50, func(step int) {
		if step%2 == 0 {
			if err := s.PumpAll(); err != nil {
				t.Fatal(err)
			}
		}
	})
	lagLSN, lagRecs := s.Lag()
	if lagLSN < 0 || lagRecs < 0 {
		t.Fatalf("negative lag: %d/%d", lagLSN, lagRecs)
	}
	promoted := finishAndPromote(t, eng, s, sb)

	snap := promoted.Metrics()
	for _, name := range []string{"ship.batches_sent", "ship.records_shipped", "ship.applied_ops", "ship.installs_mirrored", "ship.promotions"} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s missing or zero in promoted Metrics(): %v", name, snap.Counters[name])
		}
	}
	for _, name := range []string{"ship.lag_lsn", "ship.lag_records"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %s missing from promoted Metrics()", name)
		}
	}
	if snap.Gauges["ship.lag_lsn"] != 0 {
		t.Errorf("after sync, ship.lag_lsn = %d, want 0", snap.Gauges["ship.lag_lsn"])
	}
	for _, name := range []string{"ship.apply.ns", "ship.promotion.ns", "ship.batch.records", "ship.batch.bytes"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Errorf("histogram %s missing or empty in promoted Metrics()", name)
		}
	}
	// Every batch and every record is stamped, and Promote's phases are
	// on their actor.
	seen := map[string]int{}
	for _, ev := range fl.Events() {
		switch ev.Kind {
		case flight.KindShipBatch, flight.KindShipApply:
			seen[ev.Kind.String()]++
		case flight.KindPhase:
			if ev.Actor == "promotion" {
				seen[ev.Dec.String()]++
			}
		}
	}
	for _, want := range []string{"ship-batch", "ship-apply", "force-tail", "recover"} {
		if seen[want] == 0 {
			t.Errorf("no %s event recorded; got %v", want, seen)
		}
	}
}
