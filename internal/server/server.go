package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"logicallog/internal/frame"
	"logicallog/internal/obs"
	"logicallog/internal/recovery"
	"logicallog/internal/workload"
)

// defaultMaxInFlight bounds admitted operations when Config leaves it zero.
const defaultMaxInFlight = 64

// maxScanChunk caps the pairs returned per scan request; clients iterate
// chunks (the client library's Range does this transparently).
const maxScanChunk = 256

// defaultScanChunk is used when a scan request asks for 0.
const defaultScanChunk = 128

// Config configures a Server.
type Config struct {
	// Backend serves the five domain calls.  The server serializes calls
	// through one mutex: domain implementations (btree, lsm) issue multiple
	// engine operations per call and are not internally latched — the
	// engine's own mutex protects each operation, the server's protects the
	// traversal.  Concurrency still pays: reading, parsing and admitting the
	// next requests and writing other responses all overlap a backend call,
	// and on a loopback connection those syscalls, not the backend, are most
	// of a request's cost.
	Backend workload.Domain
	// MaxInFlight bounds admitted operations (the admission channel's
	// capacity, biscuit Op_begin style).  0 means defaultMaxInFlight.
	MaxInFlight int
	// Obs receives the server.* metrics family; nil disables.
	Obs *obs.Registry
	// Drain, when non-nil, is the on-demand redo scheduler still draining
	// beneath the backend; Stats reports its chain-state table so clients
	// can watch recovery progress behind live traffic.
	Drain *recovery.OnDemand
}

// Server is the concurrent front-end.  One goroutine per connection reads
// and parses frames through a buffered reader and hands each admitted
// request to one of the connection's handler goroutines, which persist for
// the connection's life: an idle handler is reused, and a new one starts
// only when every handler is busy, so a slow backend call never blocks the
// connection's other pipelined requests.  Responses are written under a
// per-connection mutex, each frame built in one buffer.
type Server struct {
	cfg     Config
	backend workload.Domain
	ln      net.Listener

	// backendMu serializes backend calls (see Config.Backend).
	backendMu sync.Mutex

	// admission is the Op_begin token channel: a request must place a token
	// before running and removes it after (Op_end).  Capacity is the
	// in-flight bound; a full channel is backpressure.
	admission chan struct{}

	// stateMu guards ln and the drain flag's handoff with admission: an
	// operation is admitted (reqWG.Add) only under stateMu with the flag
	// unset, and Shutdown sets the flag under stateMu before waiting, so
	// reqWG.Add never races reqWG.Wait.
	stateMu  sync.Mutex
	drainSet bool
	draining atomic.Bool   // fast-path mirror of drainSet
	drainCh  chan struct{} // closed when Shutdown begins

	reqWG  sync.WaitGroup // admitted requests
	connWG sync.WaitGroup // connection readers

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	mConns     *obs.Counter
	mRequests  *obs.Counter
	mResponses *obs.Counter
	mRefused   *obs.Counter
	mErrors    *obs.Counter
	gInFlight  *obs.Gauge
	mAdmWaits  *obs.Counter
	hAdmWaitNs *obs.Histogram
	hRequestNs *obs.Histogram
}

// New builds a server over its config.  Call Serve with a listener.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("server: config needs a backend")
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	if cfg.MaxInFlight < 1 {
		return nil, fmt.Errorf("server: MaxInFlight %d < 1", cfg.MaxInFlight)
	}
	return &Server{
		cfg:       cfg,
		backend:   cfg.Backend,
		admission: make(chan struct{}, cfg.MaxInFlight),
		drainCh:   make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),

		mConns:     cfg.Obs.Counter("server.conns"),
		mRequests:  cfg.Obs.Counter("server.requests"),
		mResponses: cfg.Obs.Counter("server.responses"),
		mRefused:   cfg.Obs.Counter("server.refused"),
		mErrors:    cfg.Obs.Counter("server.errors"),
		gInFlight:  cfg.Obs.Gauge("server.inflight"),
		mAdmWaits:  cfg.Obs.Counter("server.admission_waits"),
		hAdmWaitNs: cfg.Obs.Histogram("server.admission_wait_ns"),
		hRequestNs: cfg.Obs.Histogram("server.request_ns"),
	}, nil
}

// Serve accepts connections on ln until Shutdown closes it.  It returns nil
// after a drain-initiated close, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.stateMu.Lock()
	s.ln = ln
	if s.drainSet {
		// Shutdown already ran; don't accept.
		s.stateMu.Unlock()
		_ = ln.Close()
		return nil
	}
	s.stateMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mConns.Inc()
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

// Shutdown drains gracefully: stop accepting, refuse new operations
// (StatusShutdown), let admitted operations finish and their responses
// flush, then close every connection.  If the deadline passes first the
// remaining connections are closed anyway (their in-flight responses are
// lost, exactly like a crash — recovery owns that case).
func (s *Server) Shutdown(deadline time.Duration) {
	s.stateMu.Lock()
	if s.drainSet {
		s.stateMu.Unlock()
		return
	}
	s.drainSet = true
	s.draining.Store(true)
	ln := s.ln
	s.stateMu.Unlock()
	close(s.drainCh)
	if ln != nil {
		_ = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(deadline):
	}
	s.connMu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.connMu.Unlock()
	s.connWG.Wait()
}

// opBegin admits one operation, blocking while MaxInFlight are in flight
// (backpressure).  It returns false when the server is draining.
func (s *Server) opBegin() bool {
	if s.draining.Load() {
		return false
	}
	select {
	case s.admission <- struct{}{}:
	default:
		// Channel full: record the backpressure wait.
		s.mAdmWaits.Inc()
		var start time.Time
		if s.hAdmWaitNs.Enabled() {
			start = time.Now()
		}
		select {
		case s.admission <- struct{}{}:
			s.hAdmWaitNs.Since(start)
		case <-s.drainCh:
			return false
		}
	}
	s.stateMu.Lock()
	if s.drainSet {
		// Raced a concurrent Shutdown; hand the token back.
		s.stateMu.Unlock()
		<-s.admission
		return false
	}
	s.reqWG.Add(1)
	s.stateMu.Unlock()
	s.gInFlight.Add(1)
	return true
}

// opEnd returns the admission token and retires the request.
func (s *Server) opEnd() {
	s.gInFlight.Add(-1)
	<-s.admission
	s.reqWG.Done()
}

// handleConn reads framed requests through one buffered reader, so a
// frame's header and payload normally arrive in one read, and hands each
// admitted request to one of the connection's handler goroutines.  A handler
// counts itself idle once its backend call is done; the reader claims an
// idle handler if there is one and starts a new handler only if there is
// none, so every handler but the one just started holds an admitted request
// when it starts: the connection never has more handlers than its peak of
// admitted requests, and a blocked backend call never holds up the
// requests behind it.  A claimed handler may still be writing its last
// response, and the reader waits for that write before it reads on: a
// client that stops reading its responses stops the reader after about one
// request, not after MaxInFlight, and so holds few of the admission tokens
// all connections share.  Handlers exit when the reader closes work.
func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	work := make(chan *Request) // unbuffered: a send meets a waiting handler
	defer close(work)
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		_ = conn.Close()
	}()
	var writeMu sync.Mutex
	respond := func(buf []byte) {
		writeMu.Lock()
		defer writeMu.Unlock()
		if err := frame.Write(conn, buf, MaxFrame); err != nil {
			s.mErrors.Inc()
		} else {
			s.mResponses.Inc()
		}
	}
	var idle atomic.Int32 // handlers done with their backend call, unclaimed
	handler := func() {
		for req := range work {
			var start time.Time
			if s.hRequestNs.Enabled() {
				start = time.Now()
			}
			buf := s.handle(req)
			idle.Add(1)
			respond(buf)
			s.hRequestNs.Since(start)
			s.opEnd()
		}
	}
	br := bufio.NewReader(conn)
	for {
		payload, err := frame.Read(br, MaxFrame)
		if err != nil {
			// EOF: client done.  Torn frame / corrupt frame / dead socket:
			// drop the connection; the WAL torn-tail rule applies — a
			// partial request carries no information and is never acted on.
			if !errors.Is(err, io.EOF) {
				s.mErrors.Inc()
			}
			return
		}
		req, err := DecodeRequest(payload)
		if err != nil {
			s.mErrors.Inc()
			return
		}
		s.mRequests.Inc()
		if !s.opBegin() {
			s.mRefused.Inc()
			respond(encodeResponse(req.ID, StatusShutdown, nil))
			continue
		}
		if idle.Load() > 0 {
			// Only this goroutine claims, so the count cannot drop to zero
			// between the load and the claim.
			idle.Add(-1)
		} else {
			go handler()
		}
		work <- req
	}
}

// handle runs one admitted request against the backend and returns its
// response frame, unsealed.
func (s *Server) handle(req *Request) []byte {
	switch req.Op {
	case OpPing:
		return encodeResponse(req.ID, StatusOK, nil)
	case OpGet:
		s.backendMu.Lock()
		v, found, err := s.backend.Get(req.Key)
		s.backendMu.Unlock()
		if err != nil {
			return s.fail(req.ID, err)
		}
		if !found {
			return encodeResponse(req.ID, StatusNotFound, nil)
		}
		return encodeResponse(req.ID, StatusOK, v)
	case OpPut:
		s.backendMu.Lock()
		err := s.backend.Put(req.Key, req.Val)
		s.backendMu.Unlock()
		if err != nil {
			return s.fail(req.ID, err)
		}
		return encodeResponse(req.ID, StatusOK, nil)
	case OpDelete:
		s.backendMu.Lock()
		found, err := s.backend.Delete(req.Key)
		s.backendMu.Unlock()
		if err != nil {
			return s.fail(req.ID, err)
		}
		b := byte(0)
		if found {
			b = 1
		}
		return encodeResponse(req.ID, StatusOK, []byte{b})
	case OpScan:
		pairs, more, err := s.scan(req)
		if err != nil {
			return s.fail(req.ID, err)
		}
		return appendScanChunk(newResponse(req.ID, StatusOK, 0), pairs, more)
	case OpCheck:
		s.backendMu.Lock()
		err := s.backend.Check()
		s.backendMu.Unlock()
		if err != nil {
			return s.fail(req.ID, err)
		}
		return encodeResponse(req.ID, StatusOK, nil)
	case OpStats:
		return encodeResponse(req.ID, StatusOK, s.statsBody())
	default:
		return s.fail(req.ID, fmt.Errorf("unknown opcode %d", req.Op))
	}
}

// scan collects one bounded chunk of the range [lo, hi) plus a "more"
// marker (one probe past the chunk).
func (s *Server) scan(req *Request) (pairs []ScanPair, more bool, err error) {
	limit := req.N
	if limit <= 0 {
		limit = defaultScanChunk
	}
	if limit > maxScanChunk {
		limit = maxScanChunk
	}
	var hi []byte
	if len(req.Hi) > 0 {
		hi = req.Hi
	}
	s.backendMu.Lock()
	defer s.backendMu.Unlock()
	err = s.backend.Range(req.Lo, hi, func(k, v []byte) bool {
		if len(pairs) == limit {
			more = true
			return false
		}
		pairs = append(pairs, ScanPair{
			Key: append([]byte(nil), k...),
			Val: append([]byte(nil), v...),
		})
		return true
	})
	return pairs, more, err
}

// fail encodes a backend or protocol error response.
func (s *Server) fail(id uint64, err error) []byte {
	s.mErrors.Inc()
	return encodeResponse(id, StatusErr, []byte(err.Error()))
}

// statsBody renders "name value" lines: request counters plus, during an
// on-demand drain, the chain-state table.
func (s *Server) statsBody() []byte {
	out := fmt.Sprintf("requests %d\nresponses %d\nrefused %d\nerrors %d\ninflight %d\n",
		s.mRequests.Value(), s.mResponses.Value(), s.mRefused.Value(),
		s.mErrors.Value(), s.gInFlight.Value())
	if d := s.cfg.Drain; d != nil {
		pending, inFlight, done := d.ChainCounts()
		out += fmt.Sprintf("recovery_done %v\nchains_pending %d\nchains_inflight %d\nchains_done %d\n",
			d.Done(), pending, inFlight, done)
	}
	return []byte(out)
}
