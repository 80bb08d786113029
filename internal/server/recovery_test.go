package server

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"logicallog/internal/core"
	"logicallog/internal/obs"
)

var serverSeed = flag.Int64("server-seed", 11, "seed for the server recovery kill-point sweep")

// buildCrashedKV drives a deterministic key/value history into a fresh
// engine and crashes it with a durable redo suffix: creates, overwrites,
// deletes, periodic minimal installs, one checkpoint, final force.  The
// same seed always yields the same crashed image.
func buildCrashedKV(t *testing.T, seed int64) (*core.Engine, *KV) {
	t.Helper()
	opts := core.DefaultOptions()
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	kv := NewKV(eng)
	rng := rand.New(rand.NewSource(seed))
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }
	const keys = 40
	for i := 0; i < keys; i++ {
		v := make([]byte, 48)
		rng.Read(v)
		if err := kv.Put(key(i), v); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 160; step++ {
		i := rng.Intn(keys)
		switch {
		case step%11 == 7:
			if _, err := kv.Delete(key(i)); err != nil {
				t.Fatal(err)
			}
		default:
			v := make([]byte, 48)
			rng.Read(v)
			if err := kv.Put(key(i), v); err != nil {
				t.Fatal(err)
			}
		}
		if step%13 == 5 {
			if err := eng.InstallOne(); err != nil {
				t.Fatal(err)
			}
		}
		if step == 80 {
			if err := eng.CheckpointOnly(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	return eng, kv
}

// referenceState fully recovers a same-seed image and captures every key's
// value — the oracle every kill point is checked against.
func referenceState(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	eng, kv := buildCrashedKV(t, seed)
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	ref := make(map[string][]byte)
	if err := kv.Range(nil, nil, func(k, v []byte) bool {
		ref[string(k)] = append([]byte(nil), v...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("reference state empty; workload broken")
	}
	return ref
}

// TestServerKillMidRedo is the crash-explorer extension for the serving-
// during-redo path: at each kill point k, restart a crashed image with
// on-demand recovery, serve live traffic (reads verified against the
// full-redo oracle, plus writes), then kill the server and the engine after
// k responses — mid-drain, with chains still pending — recover fully, and
// require the state to be byte-identical to the oracle.  It must be: demand
// and background replay never force the log, and the killed run's client
// writes were never forced either, so the durable image is unchanged.
func TestServerKillMidRedo(t *testing.T) {
	seed := *serverSeed
	ref := referenceState(t, seed)
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }

	for _, kill := range []int{0, 1, 3, 7, 15} {
		t.Run(fmt.Sprintf("kill=%d", kill), func(t *testing.T) {
			eng, kv := buildCrashedKV(t, seed)
			od, err := eng.RecoverOnDemand()
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{Backend: kv, Obs: obs.NewRegistry(), Drain: od})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serveDone := make(chan error, 1)
			go func() { serveDone <- srv.Serve(ln) }()
			cl, err := Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}

			// Live traffic against the recovering server: reads checked
			// against the oracle, writes racing the drain.
			rng := rand.New(rand.NewSource(seed * 31))
			for r := 0; r < kill; r++ {
				i := rng.Intn(40)
				if r%3 == 2 {
					if err := cl.Put(key(i), []byte(fmt.Sprintf("mid-drain-%d", r))); err != nil {
						t.Fatalf("response %d: Put: %v", r, err)
					}
					continue
				}
				v, found, err := cl.Get(key(i))
				if err != nil {
					t.Fatalf("response %d: Get: %v", r, err)
				}
				want, wantFound := ref[string(key(i))]
				// A key this run already overwrote mid-drain no longer
				// matches the oracle; only verify untouched keys.
				if !bytes.HasPrefix(v, []byte("mid-drain-")) {
					if found != wantFound {
						t.Fatalf("response %d: Get(%s) found=%v, oracle says %v", r, key(i), found, wantFound)
					}
					if found && !bytes.Equal(v, want) {
						t.Fatalf("response %d: Get(%s) diverges from full-redo oracle", r, key(i))
					}
				}
			}

			// Kill: hard server stop plus engine crash, mid-drain.
			_ = cl.Close()
			srv.Shutdown(50 * time.Millisecond)
			<-serveDone
			eng.Crash()

			// Restart with full recovery: the durable image is unchanged
			// (nothing above forced), so the state must equal the oracle.
			if _, err := eng.Recover(); err != nil {
				t.Fatal(err)
			}
			got := make(map[string][]byte)
			if err := kv.Range(nil, nil, func(k, v []byte) bool {
				got[string(k)] = append([]byte(nil), v...)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(ref) {
				t.Fatalf("recovered %d keys, oracle has %d", len(got), len(ref))
			}
			for k, want := range ref {
				if !bytes.Equal(got[k], want) {
					t.Errorf("key %s diverges from oracle after kill-point %d", k, kill)
				}
			}
			if err := kv.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServeDuringRedoToCompletion: a server over an on-demand drain serves
// a full scripted workload to completion; afterwards the drain is done and
// the final state matches a full-redo restart (no kill — the clean path of
// the explorer config above).
func TestServeDuringRedoToCompletion(t *testing.T) {
	seed := *serverSeed + 1
	ref := referenceState(t, seed)

	eng, kv := buildCrashedKV(t, seed)
	od, err := eng.RecoverOnDemand()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	// Rebuild the engine metrics registry association: StartOnDemand used
	// the engine's own (nil) registry; the server's is separate.
	srv, err := New(Config{Backend: kv, Obs: reg, Drain: od})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// First request is served while recovery may still be draining; Stats
	// exposes the chain table either way.
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["chains_done"]; !ok {
		t.Errorf("stats missing chain table: %v", stats)
	}
	for k, want := range ref {
		v, found, err := cl.Get([]byte(k))
		if err != nil || !found || !bytes.Equal(v, want) {
			t.Fatalf("Get(%s) = found=%v err=%v; diverges from oracle", k, found, err)
		}
	}
	if _, err := od.Wait(); err != nil {
		t.Fatal(err)
	}
	if !od.Done() {
		t.Error("drain not done after Wait")
	}
	srv.Shutdown(2 * time.Second)
	if err := <-serveDone; err != nil {
		t.Errorf("Serve: %v", err)
	}
	// Every admitted request was answered before Shutdown returned.
	c := reg.Snapshot().Counters
	if c["server.requests"] == 0 || c["server.responses"] != c["server.requests"] {
		t.Errorf("server.requests = %d, server.responses = %d; want equal and non-zero",
			c["server.requests"], c["server.responses"])
	}
}
