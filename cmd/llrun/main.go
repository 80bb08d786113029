// Command llrun demonstrates the engine end to end: it drives a mixed
// logical workload against a file-backed database, simulates a crash at a
// chosen point, recovers, verifies, and prints the cost counters.
//
// Usage:
//
//	llrun [-steps N] [-seed S] [-scenario mix] [-wal path] [-physio] [-w] [-vsi]
//	      [-faults token] [-standby] [-ship-batch R]
//	      [-trace-out trace.json] [-flight spill.bin] [-metrics] [-debug-addr host:port]
//	      [-cpuprofile p] [-memprofile p] [-runtime-trace p]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/fault"
	"logicallog/internal/forensics"
	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/recovery"
	"logicallog/internal/server"
	"logicallog/internal/ship"
	"logicallog/internal/sim"
	"logicallog/internal/wal"
	"logicallog/internal/workload"
	"logicallog/internal/writegraph"
)

func main() {
	steps := flag.Int("steps", 200, "workload steps before the crash")
	seed := flag.Int64("seed", 1, "workload seed")
	scenario := flag.String("scenario", "", `drive the recoverable domains (B+tree + LSM) with this scenario mix instead of the flat workload: point-lookup-heavy, scan-heavy, write-burst, or a custom "lookup=40,scan=10,insert=30,update=15,delete=5" spec`)
	connect := flag.String("connect", "", "drive the scenario mix against a running llserve at this address instead of a local engine (works mid-recovery: the server redoes what each request needs)")
	walPath := flag.String("wal", "", "WAL file path (default: a new temp file, kept after exit)")
	physio := flag.Bool("physio", false, "use the physiological baseline configuration")
	classicW := flag.Bool("w", false, "use the classic write graph W instead of rW")
	vsi := flag.Bool("vsi", false, "use the classic vSI REDO test instead of generalized rSIs")
	faults := flag.String("faults", "", `fault plan token, e.g. "wal@17:torn=3+stable@4:eio" (see internal/fault)`)
	standby := flag.Bool("standby", false, "ship the log to a warm standby during the run and promote it after the crash (llship is the full demo)")
	shipBatch := flag.Int("ship-batch", 16, "ship batch size in records (with -standby)")
	traceOut := flag.String("trace-out", "", "write the flight recorder's recovery phases and decisions as Chrome trace_event JSON to this path")
	flightOut := flag.String("flight", "", "record decision provenance to this crash-surviving flight spill file (inspect with llinspect -flight)")
	metrics := flag.Bool("metrics", false, "print the unified metrics snapshot (and recovery timeline) after the run")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars, /debug/pprof, and /metrics on this address")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path at exit")
	runtimeTrace := flag.String("runtime-trace", "", "write a Go runtime execution trace to this path")
	flag.Parse()

	prof, err := obs.StartProfiles(*cpuProfile, *memProfile, *runtimeTrace)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "llrun: profiles: %v\n", err)
		}
	}()

	if *scenario != "" {
		if _, err := workload.ParseMix(*scenario); err != nil {
			fatal(err)
		}
	}

	if *connect != "" {
		mixName := *scenario
		if mixName == "" {
			mixName = "point-lookup-heavy"
		}
		if err := runRemote(*connect, mixName, *seed, *steps); err != nil {
			fatal(err)
		}
		return
	}

	points, err := fault.ParseToken(*faults)
	if err != nil {
		fatal(err)
	}
	plan := fault.NewPlan(points...)

	var reg *obs.Registry
	if *metrics || *debugAddr != "" {
		reg = obs.NewRegistry()
		plan.SetObs(reg)
	}

	opts := core.DefaultOptions()
	opts.Physiological = *physio
	opts.Obs = reg
	if *classicW {
		opts.Policy = writegraph.PolicyW
		opts.Strategy = cache.StrategyShadow // identity breakup needs rW
	}
	if *vsi || *physio {
		opts.RedoTest = recovery.TestVSI
	}
	path := *walPath
	if path == "" {
		path = filepath.Join(os.TempDir(), fmt.Sprintf("llrun-%d.wal", os.Getpid()))
	}
	dev, err := wal.OpenFileDevice(path)
	if err != nil {
		fatal(err)
	}
	defer dev.Close()
	opts.LogDevice = plan.WrapDevice(dev)
	var (
		flightRec *flight.Recorder
		resumed   int // spilled events from earlier runs
	)
	if *flightOut != "" {
		var recovered []flight.Event
		flightRec, recovered, err = flight.OpenSpill(*flightOut, flight.DefaultRingSize)
		if err != nil {
			fatal(err)
		}
		defer flightRec.Close()
		if resumed = len(recovered); resumed > 0 {
			fmt.Printf("flight recorder resumed after %d spilled events (torn tail trimmed if any)\n", resumed)
		}
	} else if *traceOut != "" || *metrics {
		flightRec = flight.NewRecorder(0)
	}
	opts.Flight = flightRec
	if *scenario != "" {
		// The shared registry lets a -standby engine resolve the domain
		// transforms before the first shipped record arrives.
		opts.Registry = sim.NewDomainRegistry()
	}

	eng, err := core.New(opts)
	if err != nil {
		fatal(err)
	}
	eng.Store().SetWriteProbe(plan.StableProbe())
	if *debugAddr != "" {
		ln, err := obs.ServeDebug(*debugAddr, eng.Metrics)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Printf("debug endpoint on http://%s/debug/pprof/ (metrics at /metrics)\n", ln.Addr())
	}
	sc := sim.DefaultScenario(*seed)
	sc.Steps = *steps
	// Spread the flat workload over enough objects that its redo suffix
	// splits into several dependency chains, each a chain phase in the
	// recovery trace.
	sc.Objects = 512

	var (
		sb     *ship.Standby
		sender *ship.Sender
	)
	if *standby {
		sopts := opts
		sopts.LogDevice = nil // the standby keeps its own in-memory log
		sb, err = ship.NewStandby(ship.StandbyConfig{Opts: sopts, TruncateOnCheckpoint: sopts.LogInstalls})
		if err != nil {
			fatal(err)
		}
		// The link shares the fault plan, so ship@N tokens hit the wire.
		sender = ship.NewSender(eng.Log(), ship.NewLink(sb, plan), 1, ship.SenderConfig{BatchRecords: *shipBatch, Obs: reg, Flight: flightRec})
		defer sender.Close()
		sc.StepHook = func(int) error { return sender.PumpAll() }
	}

	var driveErr error
	if *scenario != "" {
		fmt.Printf("running %d-step %s scenario over the B+tree and LSM domains (seed %d, policy %v, physiological %v)...\n",
			*steps, *scenario, *seed, opts.Policy, opts.Physiological)
		driveErr = sim.DriveMixWorkload(eng, *scenario, *seed, *steps, sc.StepHook)
	} else {
		fmt.Printf("running %d-step workload (seed %d, policy %v, physiological %v)...\n",
			sc.Steps, sc.Seed, opts.Policy, opts.Physiological)
		driveErr = sim.DriveWorkload(eng, sc)
	}
	if driveErr != nil {
		if !errors.Is(driveErr, fault.ErrInjected) && !wal.IsTransient(driveErr) {
			fatal(driveErr)
		}
		fmt.Printf("workload stopped by injected fault: %v\n", driveErr)
		fmt.Printf("  repro token: %s\n", plan.Token())
	}
	st := eng.Stats()
	fmt.Printf("  log:   %d bytes appended (%d bytes of data values)\n", st.Log.BytesAppended, st.Log.ValueBytes)
	fmt.Printf("  store: %d object writes\n", st.Store.ObjectWrites)
	fmt.Printf("  cache: %d installs, %d identity writes, %d installed-without-flush\n",
		st.Cache.Installs, st.Cache.IdentityWrites, st.Cache.InstalledNotFlushed)

	if sender != nil {
		if err := eng.Log().Force(); err != nil && !errors.Is(err, fault.ErrInjected) && !wal.IsTransient(err) {
			fatal(err)
		}
		if err := sender.Sync(); err != nil {
			fmt.Printf("  standby drain stopped: %v\n", err)
		}
		lagLSN, lagRec := sender.Lag()
		fmt.Printf("  standby: applied %d (lag %d LSNs / %d records, %d resyncs)\n",
			sb.Applied(), lagLSN, lagRec, sender.Resyncs())
	}

	fmt.Printf("crashing (stable LSN %d, losing unforced tail)...\n", eng.Log().StableLSN())
	eng.Crash()
	plan.Heal()

	res, err := eng.Recover()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("recovered: scanned %d ops from LSN %d; redone %d, skipped %d installed / %d unexposed, voided %d\n",
		res.ScannedOps, res.RedoStart, res.Redone, res.SkippedInstalled, res.SkippedUnexposed, res.Voided)
	// The durable horizon is what recovery re-derived: an injected torn,
	// flipped, or reordered final append trims the log below the pre-crash
	// acked horizon, and a written-but-unacked tail can raise it.
	horizon := eng.Log().StableLSN()

	if err := sim.VerifyAgainstOracle(eng, horizon); err != nil {
		fatal(fmt.Errorf("verification FAILED: %w", err))
	}
	fmt.Println("verification: recovered state matches the durable-history oracle")
	if *scenario != "" {
		if err := sim.VerifyMixDomains(eng); err != nil {
			fatal(fmt.Errorf("domain verification FAILED: %w", err))
		}
		fmt.Println("domains: recovered B+tree and LSM reopen, pass their invariants, and scan cleanly")
	}

	if sb != nil {
		shipHorizon := sb.Applied()
		promoted, pres, err := sb.Promote()
		if err != nil {
			fatal(fmt.Errorf("standby promotion FAILED: %w", err))
		}
		fmt.Printf("promoted standby: scanned %d ops, redone %d\n", pres.ScannedOps, pres.Redone)
		if err := sim.VerifyHistory(promoted.Registry(), eng.History(), promoted, shipHorizon); err != nil {
			fatal(fmt.Errorf("standby verification FAILED: %w", err))
		}
		fmt.Printf("  standby matches the primary's history through LSN %d\n", shipHorizon)
		if *scenario != "" {
			if err := sim.VerifyMixDomains(promoted); err != nil {
				fatal(fmt.Errorf("standby domain verification FAILED: %w", err))
			}
			fmt.Println("  standby domains: B+tree and LSM reopen, pass their invariants, and scan cleanly")
		}
		if shipHorizon > horizon {
			fmt.Printf("  note: the standby preserved %d LSNs the crashed primary's log lost (shipped before the fault trimmed the tail)\n",
				shipHorizon-horizon)
		}
	}

	var timeline []obs.Event
	if *traceOut != "" || *metrics {
		if timeline, err = runTimeline(flightRec, *flightOut, resumed); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteChromeTraceEvents(f, timeline); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recovery trace written to %s (load in chrome://tracing or Perfetto, or llinspect -timeline)\n", *traceOut)
	}
	if *metrics {
		fmt.Println("-- metrics")
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(eng.Metrics()); err != nil {
			fatal(err)
		}
		obs.RenderTimeline(os.Stdout, timeline)
	}
	if *flightOut != "" {
		if err := flightRec.Sync(); err != nil {
			fatal(err)
		}
		fmt.Printf("flight spill left at %s (explain a decision: llinspect -flight %s -explain LSN %s)\n", *flightOut, *flightOut, path)
	}
	fmt.Printf("WAL left at %s (inspect with llinspect)\n", path)
}

// runTimeline renders this run's flight events as timeline events.  With a
// spill file it reads the file back, so the ring's limit cannot drop the
// early phases; the first `resumed` spilled events belong to earlier runs.
func runTimeline(rec *flight.Recorder, spill string, resumed int) ([]obs.Event, error) {
	events := rec.Events()
	if spill != "" {
		if err := rec.Sync(); err != nil {
			return nil, err
		}
		all, err := flight.ReadSpill(spill)
		if err != nil {
			return nil, err
		}
		events = all[min(resumed, len(all)):]
	} else if _, drops, _ := rec.Counters(); drops > 0 {
		fmt.Printf("flight ring dropped its %d oldest events; pass -flight to keep them\n", drops)
	}
	return forensics.MergeTimeline(events, nil), nil
}

// runRemote drives a scenario mix over the wire against a running llserve:
// adopt the server's current contents into the model, run the mix with
// per-step cross-checks, then verify the full state.  It works against a
// server still draining recovery — every request redoes exactly the
// dependency chains it needs before being served.
func runRemote(addr, mixName string, seed int64, steps int) error {
	mix, err := workload.ParseMix(mixName)
	if err != nil {
		return err
	}
	cl, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		return err
	}
	drv, err := workload.NewMixDriver(mix, seed)
	if err != nil {
		return err
	}
	if err := drv.Adopt(cl); err != nil {
		return err
	}
	fmt.Printf("driving %d-step %s mix against %s (seed %d, adopted %d existing keys)...\n",
		steps, mixName, addr, seed, drv.ModelSize())
	if err := drv.Steps(cl, steps); err != nil {
		return err
	}
	if err := drv.Verify(cl); err != nil {
		return fmt.Errorf("remote verification FAILED: %w", err)
	}
	c := drv.Counts()
	fmt.Printf("  ops: %d lookups, %d scans, %d inserts, %d updates, %d deletes (%d keys live)\n",
		c.Lookups, c.Scans, c.Inserts, c.Updates, c.Deletes, drv.ModelSize())
	stats, err := cl.Stats()
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("  server stats:")
	for _, k := range keys {
		fmt.Printf("    %-18s %d\n", k, stats[k])
	}
	fmt.Println("verification: server state matches the driver's model")
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "llrun: %v\n", err)
	os.Exit(1)
}
