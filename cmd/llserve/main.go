// Command llserve runs the network front-end over a recoverable engine and
// demonstrates open-for-business-during-redo: on restart after a crash the
// listener opens as soon as log analysis finishes, demand requests redo just
// the dependency chains they touch, and background workers drain the rest.
//
// Usage:
//
//	llserve [-addr host:port] [-backend kv|btree|lsm] [-wal path]
//	        [-inflight N] [-redo-workers N] [-full-recover]
//	        [-debug-addr host:port] [-metrics]
//	llserve -demo
//
// The -demo mode is a self-contained instant-recovery check (used by CI): it
// builds a crashed image, measures time-to-first-served-request under
// on-demand recovery against the full-redo wall time on a twin image, drives
// mixed traffic, kills the server mid-drain, recovers fully, and verifies
// the state is byte-identical to the full-redo oracle.  It exits nonzero if
// the first served request was not strictly faster than full redo or any
// byte diverges.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"logicallog/internal/core"
	"logicallog/internal/obs"
	"logicallog/internal/recovery"
	"logicallog/internal/server"
	"logicallog/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	backend := flag.String("backend", "kv", "backend domain: kv, btree, or lsm")
	walPath := flag.String("wal", "llserve.wal", "WAL file path (opened or created)")
	inflight := flag.Int("inflight", 0, "max in-flight operations (0 = server default)")
	redoWorkers := flag.Int("redo-workers", 0, "goroutines replaying redo chains (0 = GOMAXPROCS, 1 = one replaying goroutine)")
	fullRecover := flag.Bool("full-recover", false, "recover fully before opening the listener (classic restart, for comparison)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars, /debug/pprof, and /metrics on this address")
	metrics := flag.Bool("metrics", false, "print the metrics snapshot at exit")
	demo := flag.Bool("demo", false, "run the self-contained instant-recovery demo and exit")
	flag.Parse()

	if *demo {
		if err := runDemo(*redoWorkers); err != nil {
			fatal(err)
		}
		return
	}
	if err := serve(*addr, *backend, *walPath, *inflight, *redoWorkers, *fullRecover, *debugAddr, *metrics); err != nil {
		fatal(err)
	}
}

func serve(addr, backend, walPath string, inflight, redoWorkers int, fullRecover bool, debugAddr string, metrics bool) error {
	// A log that already has bytes means a prior incarnation: recover it.
	// A fresh (or absent) file means a new store: create the backend.
	fresh := true
	if st, err := os.Stat(walPath); err == nil && st.Size() > 0 {
		fresh = false
	}
	dev, err := wal.OpenFileDevice(walPath)
	if err != nil {
		return err
	}
	defer dev.Close()

	reg := obs.NewRegistry()
	opts := core.DefaultOptions()
	opts.LogDevice = dev
	opts.RedoWorkers = redoWorkers
	opts.Obs = reg
	eng, err := core.New(opts)
	if err != nil {
		return err
	}
	// The recovering engine must know every backend's transforms before the
	// first record replays, whichever backend wrote the log.
	server.RegisterBackends(eng.Registry())

	var drain *recovery.OnDemand
	if !fresh {
		if fullRecover {
			start := time.Now()
			res, err := eng.Recover()
			if err != nil {
				return err
			}
			fmt.Printf("full recovery in %v: scanned %d ops, redone %d\n",
				time.Since(start), res.ScannedOps, res.Redone)
		} else {
			start := time.Now()
			drain, err = eng.RecoverOnDemand()
			if err != nil {
				return err
			}
			fmt.Printf("analysis done in %v: %d dependency chains; opening for business while redo drains\n",
				time.Since(start), drain.Chains())
		}
	}

	dom, err := server.OpenBackend(eng, backend, fresh)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Backend:     dom,
		MaxInFlight: inflight,
		Obs:         reg,
		Drain:       drain,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if debugAddr != "" {
		dln, err := obs.ServeDebug(debugAddr, eng.Metrics)
		if err != nil {
			return err
		}
		defer dln.Close()
		fmt.Printf("debug endpoint on http://%s/debug/pprof/ (metrics at /metrics)\n", dln.Addr())
	}
	fmt.Printf("llserve: %s backend on %s (wal %s)\n", backend, ln.Addr(), walPath)

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("llserve: %v; draining...\n", s)
		srv.Shutdown(5 * time.Second)
		<-serveDone
	case err := <-serveDone:
		if err != nil {
			return err
		}
	}
	// Graceful exit: finish the background drain so the next open starts
	// clean, then force the tail so acknowledged work survives.
	if drain != nil {
		if _, err := drain.Wait(); err != nil {
			return fmt.Errorf("background drain: %w", err)
		}
	}
	if err := eng.Log().Force(); err != nil {
		return err
	}
	if metrics {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(eng.Metrics()); err != nil {
			return err
		}
	}
	fmt.Println("llserve: bye")
	return nil
}

// Demo sizing: enough independent chains that full redo is long while any
// one key's chain is tiny — the flat KV backend keeps chains disjoint.
const (
	demoSeed  = 4242
	demoKeys  = 800
	demoSteps = 8000
	demoVal   = 192
)

func demoKey(i int) []byte { return []byte(fmt.Sprintf("d%04d", i)) }

// buildDemoImage drives the deterministic demo history into a fresh
// in-memory engine and crashes it with a long durable redo suffix.  The
// same seed always yields the same crashed image, so two builds are twins.
func buildDemoImage(redoWorkers int) (*core.Engine, *server.KV, error) {
	opts := core.DefaultOptions()
	opts.RedoWorkers = redoWorkers
	eng, err := core.New(opts)
	if err != nil {
		return nil, nil, err
	}
	kv := server.NewKV(eng)
	rng := rand.New(rand.NewSource(demoSeed))
	for i := 0; i < demoKeys; i++ {
		v := make([]byte, demoVal)
		rng.Read(v)
		if err := kv.Put(demoKey(i), v); err != nil {
			return nil, nil, err
		}
	}
	// Checkpoint early so nearly the whole overwrite phase is redo work.
	if err := eng.CheckpointOnly(); err != nil {
		return nil, nil, err
	}
	for step := 0; step < demoSteps; step++ {
		i := rng.Intn(demoKeys)
		if step%97 == 13 {
			if _, err := kv.Delete(demoKey(i)); err != nil {
				return nil, nil, err
			}
			continue
		}
		v := make([]byte, demoVal)
		rng.Read(v)
		if err := kv.Put(demoKey(i), v); err != nil {
			return nil, nil, err
		}
	}
	if err := eng.Log().Force(); err != nil {
		return nil, nil, err
	}
	eng.Crash()
	return eng, kv, nil
}

func runDemo(redoWorkers int) error {
	fmt.Printf("demo: building twin crashed images (%d keys, %d ops)...\n", demoKeys, demoSteps)

	// Twin 1: classic full-redo restart — the baseline and the oracle.
	full, fullKV, err := buildDemoImage(redoWorkers)
	if err != nil {
		return err
	}
	fullStart := time.Now()
	fres, err := full.Recover()
	if err != nil {
		return err
	}
	fullRedo := time.Since(fullStart)
	oracle := make(map[string][]byte)
	if err := fullKV.Range(nil, nil, func(k, v []byte) bool {
		oracle[string(k)] = append([]byte(nil), v...)
		return true
	}); err != nil {
		return err
	}
	fmt.Printf("demo: full redo replayed %d ops in %v (%d live keys)\n",
		fres.Redone, fullRedo, len(oracle))

	// Twin 2: open for business during redo.  The clock starts before
	// analysis and stops when the first client request is answered.
	eng, kv, err := buildDemoImage(redoWorkers)
	if err != nil {
		return err
	}
	firstStart := time.Now()
	od, err := eng.RecoverOnDemand()
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Backend: kv, Obs: obs.NewRegistry(), Drain: od})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	cl, err := server.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	probe := demoKey(demoKeys / 2)
	v, found, err := cl.Get(probe)
	if err != nil {
		return err
	}
	firstServe := time.Since(firstStart)
	want, wantFound := oracle[string(probe)]
	if found != wantFound || (found && !bytes.Equal(v, want)) {
		return fmt.Errorf("demo: first served read of %s diverges from the full-redo oracle", probe)
	}
	pending, inFlight, done := od.ChainCounts()
	fmt.Printf("demo: first request served in %v (chains at that moment: %d pending, %d in flight, %d done)\n",
		firstServe, pending, inFlight, done)

	// Mixed traffic while the background drain races on: verified reads,
	// unforced writes, a range scan.
	rng := rand.New(rand.NewSource(demoSeed * 7))
	dirty := make(map[string]bool)
	for r := 0; r < 300; r++ {
		i := rng.Intn(demoKeys)
		k := demoKey(i)
		switch r % 5 {
		case 4:
			if err := cl.Put(k, []byte(fmt.Sprintf("mid-drain-%d", r))); err != nil {
				return fmt.Errorf("demo traffic Put: %w", err)
			}
			dirty[string(k)] = true
		case 3:
			n := 0
			if err := cl.Range(k, nil, func([]byte, []byte) bool {
				n++
				return n < 16
			}); err != nil {
				return fmt.Errorf("demo traffic Range: %w", err)
			}
		default:
			v, found, err := cl.Get(k)
			if err != nil {
				return fmt.Errorf("demo traffic Get: %w", err)
			}
			if dirty[string(k)] {
				continue
			}
			want, wantFound := oracle[string(k)]
			if found != wantFound || (found && !bytes.Equal(v, want)) {
				return fmt.Errorf("demo: mid-drain read of %s diverges from the full-redo oracle", k)
			}
		}
	}

	// Crash the serving-during-redo incarnation mid-drain: none of the
	// traffic above was forced and replay never appends, so the durable
	// image is unchanged — full recovery must reproduce the oracle exactly.
	_ = cl.Close()
	srv.Shutdown(100 * time.Millisecond)
	<-serveDone
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		return err
	}
	got := make(map[string][]byte)
	if err := kv.Range(nil, nil, func(k, v []byte) bool {
		got[string(k)] = append([]byte(nil), v...)
		return true
	}); err != nil {
		return err
	}
	if len(got) != len(oracle) {
		return fmt.Errorf("demo: restart after kill has %d keys, oracle has %d", len(got), len(oracle))
	}
	for k, want := range oracle {
		if !bytes.Equal(got[k], want) {
			return fmt.Errorf("demo: key %s diverges from the oracle after kill + full recovery", k)
		}
	}
	fmt.Println("demo: state after kill-mid-redo + full recovery is byte-identical to the oracle")

	if firstServe >= fullRedo {
		return fmt.Errorf("demo FAILED: first request served in %v, not faster than full redo %v", firstServe, fullRedo)
	}
	fmt.Printf("demo OK: first request in %v vs full redo %v (%.1fx faster to first service)\n",
		firstServe, fullRedo, float64(fullRedo)/float64(firstServe))
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "llserve: %v\n", err)
	os.Exit(1)
}
