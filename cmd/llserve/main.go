// Command llserve runs the network front-end over a recoverable engine and
// demonstrates open-for-business-during-redo: on restart after a crash the
// listener opens as soon as log analysis finishes, demand requests redo just
// the dependency chains they touch, and one background replayer drains the
// rest.
//
// Usage:
//
//	llserve [-addr host:port] [-backend kv|btree|lsm] [-wal path]
//	        [-inflight N]
//	        [-debug-addr host:port] [-metrics]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars, /debug/pprof, and /metrics on this address")
	metrics := flag.Bool("metrics", false, "print the metrics snapshot at exit")
	flag.Parse()

	if err := serve(*addr, *backend, *walPath, *inflight, *debugAddr, *metrics); err != nil {
		fatal(err)
	}
}

func serve(addr, backend, walPath string, inflight int, debugAddr string, metrics bool) error {
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
		start := time.Now()
		drain, err = eng.RecoverOnDemand()
		if err != nil {
			return err
		}
		fmt.Printf("analysis done in %v: %d dependency chains; opening for business while redo drains\n",
			time.Since(start), drain.Chains())
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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "llserve: %v\n", err)
	os.Exit(1)
}
