package server

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"logicallog/internal/core"
	"logicallog/internal/frame"
	"logicallog/internal/obs"
	"logicallog/internal/workload"
)

// startServer spins up a server on loopback and returns it, a connected
// client, and the listen address.  Cleanup shuts both down.
func startServer(t *testing.T, cfg Config) (*Server, *Client, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cl.Close()
		srv.Shutdown(2 * time.Second)
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, cl, addr
}

func newKVServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, c, _ := startServer(t, Config{Backend: NewKV(eng), Obs: obs.NewRegistry()})
	return s, c
}

func TestServerBasicOps(t *testing.T) {
	_, cl := newKVServer(t)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, found, err := cl.Get([]byte("missing")); err != nil || found {
		t.Fatalf("Get(missing) = found=%v, %v", found, err)
	}
	if err := cl.Put([]byte("a"), []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put([]byte("b"), []byte("beta")); err != nil {
		t.Fatal(err)
	}
	v, found, err := cl.Get([]byte("a"))
	if err != nil || !found || string(v) != "alpha" {
		t.Fatalf("Get(a) = %q, %v, %v", v, found, err)
	}
	var keys []string
	if err := cl.Range(nil, nil, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != "[a b]" {
		t.Fatalf("Range = %v", keys)
	}
	found, err = cl.Delete([]byte("a"))
	if err != nil || !found {
		t.Fatalf("Delete(a) = %v, %v", found, err)
	}
	found, err = cl.Delete([]byte("a"))
	if err != nil || found {
		t.Fatalf("second Delete(a) = %v, %v", found, err)
	}
	if err := cl.Check(); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["requests"] < 8 {
		t.Errorf("stats requests = %d", stats["requests"])
	}
}

// TestServerMixWorkloads drives every named scenario mix through the wire
// against each backend — the same differential model check the local
// domains get, now spanning protocol encode/decode and the pipelined demux.
func TestServerMixWorkloads(t *testing.T) {
	for _, backend := range []string{"kv", "btree", "lsm"} {
		for _, mix := range workload.Mixes() {
			t.Run(backend+"/"+mix.Name, func(t *testing.T) {
				eng, err := core.New(core.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				dom, err := OpenBackend(eng, backend, true)
				if err != nil {
					t.Fatal(err)
				}
				_, cl, _ := startServer(t, Config{Backend: dom, Obs: obs.NewRegistry()})
				drv, err := workload.NewMixDriver(mix, 42)
				if err != nil {
					t.Fatal(err)
				}
				if err := drv.Steps(cl, 150); err != nil {
					t.Fatal(err)
				}
				if err := drv.Verify(cl); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// blockingDomain parks every Get on a gate channel so tests control how
// long a backend call stays in flight.
type blockingDomain struct {
	workload.Domain
	gate chan struct{}
}

func (b *blockingDomain) Get(key []byte) ([]byte, bool, error) {
	<-b.gate
	return []byte("v"), true, nil
}

// TestAdmissionBackpressure: with MaxInFlight=2 and the backend parked, a
// third concurrent request must wait in Op_begin (admission channel full)
// and the server must record the wait.
func TestAdmissionBackpressure(t *testing.T) {
	reg := obs.NewRegistry()
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bd := &blockingDomain{Domain: NewKV(eng), gate: make(chan struct{})}
	_, cl, _ := startServer(t, Config{Backend: bd, MaxInFlight: 2, Obs: reg})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := cl.Get([]byte("k")); err != nil {
				t.Errorf("Get: %v", err)
			}
		}()
	}
	// Wait until exactly two are admitted and the third is queued.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("server.admission_waits").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("admission wait never recorded (inflight=%d)",
				reg.Gauge("server.inflight").Value())
		}
		time.Sleep(time.Millisecond)
	}
	if got := reg.Gauge("server.inflight").Value(); got != 2 {
		t.Errorf("inflight with a full admission channel = %d, want 2", got)
	}
	close(bd.gate) // release all three
	wg.Wait()
	// A request retires (opEnd) after its response is written, so the
	// client may see its answer a moment before the gauge drops.
	for reg.Gauge("server.inflight").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight after completion = %d", reg.Gauge("server.inflight").Value())
		}
		time.Sleep(time.Millisecond)
	}
	if reg.Histogram("server.admission_wait_ns").Snapshot().Count == 0 {
		t.Error("admission wait histogram empty")
	}
}

// TestGracefulDrain: a shutdown mid-operation lets the admitted operation
// finish and flush its response; operations arriving during the drain are
// refused with StatusShutdown, not dropped.
func TestGracefulDrain(t *testing.T) {
	reg := obs.NewRegistry()
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bd := &blockingDomain{Domain: NewKV(eng), gate: make(chan struct{})}
	srv, err := New(Config{Backend: bd, Obs: reg})
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

	slow := make(chan error, 1)
	go func() {
		_, _, err := cl.Get([]byte("k"))
		slow <- err
	}()
	for reg.Gauge("server.inflight").Value() != 1 {
		time.Sleep(time.Millisecond)
	}
	shutDone := make(chan struct{})
	go func() {
		srv.Shutdown(5 * time.Second)
		close(shutDone)
	}()
	for !srv.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	// A request during the drain is refused, and the refusal is a response,
	// not a dropped connection.
	if err := cl.Ping(); !ErrShutdown(err) {
		t.Errorf("Ping during drain = %v, want shutdown refusal", err)
	}
	// The in-flight Get is still running; release it and it completes.
	close(bd.gate)
	if err := <-slow; err != nil {
		t.Errorf("in-flight Get across drain: %v", err)
	}
	<-shutDone
	if err := <-serveDone; err != nil {
		t.Errorf("Serve: %v", err)
	}
	if reg.Counter("server.refused").Value() == 0 {
		t.Error("refused counter never bumped")
	}
}

// TestShutdownMidPipeline: a burst of pipelined requests racing Shutdown
// each ends deterministically — served or refused, never hung or lost.
func TestShutdownMidPipeline(t *testing.T) {
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Backend: NewKV(eng), MaxInFlight: 4, Obs: obs.NewRegistry()})
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

	const burst = 64
	errs := make(chan error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- cl.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
		}(i)
		if i == burst/2 {
			go srv.Shutdown(5 * time.Second)
		}
	}
	wg.Wait()
	close(errs)
	served, refused, failed := 0, 0, 0
	for err := range errs {
		switch {
		case err == nil:
			served++
		case ErrShutdown(err):
			refused++
		default:
			// Connection torn down after drain: also a deterministic end.
			failed++
		}
	}
	t.Logf("served=%d refused=%d failed=%d", served, refused, failed)
	if served+refused+failed != burst {
		t.Fatalf("lost requests: %d+%d+%d != %d", served, refused, failed, burst)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve: %v", err)
	}
}

// TestSlowAndHostileClients: a half-written (torn) frame and a corrupt
// frame are both dropped without acting on the partial bytes; well-behaved
// connections are unaffected.
func TestSlowAndHostileClients(t *testing.T) {
	reg := obs.NewRegistry()
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, cl, addr := startServer(t, Config{Backend: NewKV(eng), Obs: reg})

	// Torn frame: header promising 100 bytes, connection dies after 3.
	torn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var hdr bytes.Buffer
	if err := frame.Write(&hdr, bytes.Repeat([]byte("x"), 100), MaxFrame); err != nil {
		t.Fatal(err)
	}
	if _, err := torn.Write(hdr.Bytes()[:frame.Overhead+3]); err != nil {
		t.Fatal(err)
	}
	_ = torn.Close()

	// Corrupt frame: valid length, wrong checksum.
	corrupt, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bad := hdr.Bytes()
	bad[frame.Overhead] ^= 0xff
	if _, err := corrupt.Write(bad); err != nil {
		t.Fatal(err)
	}
	// The server must close this connection (read returns EOF).
	_ = corrupt.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := corrupt.Read(make([]byte, 1)); err == nil {
		t.Error("server kept a corrupt-framed connection open")
	}
	_ = corrupt.Close()

	// The healthy client still works.
	if err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, found, err := cl.Get([]byte("k")); err != nil || !found || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v", v, found, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("server.errors").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("protocol errors never counted")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientPipelining: many goroutines sharing one client see their own
// responses (the demux routes by request id, not arrival order).
func TestClientPipelining(t *testing.T) {
	_, cl := newKVServer(t)
	const n = 32
	for i := 0; i < n; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("p%02d", i)), []byte(fmt.Sprintf("val-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				k := []byte(fmt.Sprintf("p%02d", i))
				v, found, err := cl.Get(k)
				if err != nil || !found || string(v) != fmt.Sprintf("val-%02d", i) {
					t.Errorf("Get(%s) = %q, %v, %v", k, v, found, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
