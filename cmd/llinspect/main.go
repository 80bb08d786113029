// Command llinspect dumps a file-backed write-ahead log produced by
// logicallog (Options.LogPath) in human-readable form: one line per record,
// with operation read/write sets, install/flush bookkeeping, and checkpoint
// contents.
//
// With -timeline it instead renders the phase timeline of a recovery trace
// produced by llrun -trace-out (Chrome trace_event JSON).
//
// With -flight it also loads a flight-recorder spill file (llrun -flight):
// -explain reconstructs the full decision chain for one LSN, and -forensics
// renders the post-crash forensic timeline (the recorded phases as spans and
// decisions as instants, merged with -timeline's trace when given).
//
// Usage:
//
//	llinspect [-from LSN] path/to/db.wal
//	llinspect -explain LSN [-flight spill.bin] path/to/db.wal
//	llinspect -timeline trace.json
//	llinspect -forensics -flight spill.bin [-timeline trace.json]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"logicallog/internal/forensics"
	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	"logicallog/internal/wal"
)

func main() {
	from := flag.Uint64("from", 0, "first LSN to print")
	timeline := flag.String("timeline", "", "render the recovery timeline of a Chrome trace_event JSON file (from llrun -trace-out)")
	flightPath := flag.String("flight", "", "flight-recorder spill file (from llrun -flight) for -explain and -forensics")
	explain := flag.Uint64("explain", 0, "explain the redo decision for this LSN instead of dumping the log")
	renderForensics := flag.Bool("forensics", false, "render the forensic timeline from -flight (merged with -timeline when given)")
	flag.Parse()

	var events []flight.Event
	if *flightPath != "" {
		var err error
		events, err = flight.ReadSpill(*flightPath)
		if err != nil {
			fatal(err)
		}
	}

	if *renderForensics {
		if *flightPath == "" {
			fmt.Fprintln(os.Stderr, "llinspect: -forensics requires -flight")
			os.Exit(2)
		}
		var trace []obs.Event
		if *timeline != "" {
			var err error
			trace, err = readTrace(*timeline)
			if err != nil {
				fatal(err)
			}
		}
		obs.RenderTimeline(os.Stdout, forensics.MergeTimeline(events, trace))
		fmt.Print(forensics.Dump(events, 40))
		return
	}
	if *timeline != "" {
		trace, err := readTrace(*timeline)
		if err != nil {
			fatal(err)
		}
		obs.RenderTimeline(os.Stdout, trace)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: llinspect [-from LSN] [-explain LSN] [-flight spill] <wal file> | llinspect -timeline <trace.json> | llinspect -forensics -flight <spill>")
		os.Exit(2)
	}
	dev, err := wal.OpenFileDevice(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer dev.Close()
	log, err := wal.New(dev)
	if err != nil {
		fatal(err)
	}

	if *explain != 0 {
		sc, err := log.Scan(log.FirstLSN())
		if err != nil {
			fatal(err)
		}
		recs, err := sc.All()
		if err != nil {
			fatal(err)
		}
		x, err := forensics.Explain(recs, events, op.SI(*explain))
		if err != nil {
			fatal(err)
		}
		fmt.Print(x)
		return
	}

	sc, err := log.Scan(op.SI(*from))
	if err != nil {
		fatal(err)
	}
	count := 0
	for {
		rec, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			fatal(err)
		}
		printRecord(rec)
		count++
	}
	fmt.Printf("-- %d records (stable LSN %d, first LSN %d)\n", count, log.StableLSN(), log.FirstLSN())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "llinspect: %v\n", err)
	os.Exit(1)
}

// readTrace loads a Chrome trace_event file.
func readTrace(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadChromeTrace(f)
}

func printRecord(rec *wal.Record) {
	switch rec.Type {
	case wal.RecOperation:
		o := rec.Op
		extra := ""
		if len(o.Values) > 0 {
			var sizes []string
			for _, x := range o.WriteSet {
				if v, ok := o.Values[x]; ok {
					sizes = append(sizes, fmt.Sprintf("%s=%dB", x, len(v)))
				}
			}
			extra = " values{" + strings.Join(sizes, " ") + "}"
		}
		fmt.Printf("%8d  op     %s%s\n", rec.LSN, o, extra)
	case wal.RecInstall:
		fmt.Printf("%8d  install flushed=%s unflushed=%s ops=%v\n",
			rec.LSN, rsis(rec.Install.Flushed), rsis(rec.Install.Unflushed), rec.Install.Ops)
	case wal.RecFlush:
		fmt.Printf("%8d  flush  %s vSI=%d\n", rec.LSN, rec.Flush.Object, rec.Flush.VSI)
	case wal.RecCheckpoint:
		var parts []string
		for _, d := range rec.Checkpoint.Dirty {
			parts = append(parts, fmt.Sprintf("%s@%d", d.ID, d.RSI))
		}
		fmt.Printf("%8d  ckpt   dirty{%s}\n", rec.LSN, strings.Join(parts, " "))
	default:
		fmt.Printf("%8d  ?      type=%v\n", rec.LSN, rec.Type)
	}
}

func rsis(s []wal.ObjectRSI) string {
	var parts []string
	for _, r := range s {
		parts = append(parts, fmt.Sprintf("%s@%d", r.ID, r.RSI))
	}
	return "{" + strings.Join(parts, " ") + "}"
}
