package server

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"

	"logicallog/internal/frame"
)

// Client is a pipelined connection to a Server.  It satisfies
// workload.Domain, so a MixDriver (llrun -connect) drives a remote engine
// exactly as it drives a local tree.  Calls are safe for concurrent use:
// each request carries a fresh id, a single demux goroutine routes response
// frames to their waiters, and responses may arrive in any order.
type Client struct {
	conn net.Conn

	writeMu sync.Mutex // frames must not interleave
	mu      sync.Mutex // id counter + waiter table + terminal error
	nextID  uint64
	waiters map[uint64]chan response
	closed  error
}

// response is one demuxed reply.
type response struct {
	status uint8
	body   []byte
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (tests use net.Pipe).
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn, waiters: make(map[uint64]chan response)}
	go c.demux()
	return c
}

// Close tears the connection down; in-flight calls fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.fail(errors.New("server: client closed"))
	return err
}

// demux routes response frames to their waiters until the connection dies.
func (c *Client) demux() {
	for {
		payload, err := frame.Read(c.conn, MaxFrame)
		if err != nil {
			c.fail(fmt.Errorf("server: connection lost: %w", err))
			return
		}
		id, status, body, err := decodeResponse(payload)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.waiters[id]
		delete(c.waiters, id)
		c.mu.Unlock()
		if ok {
			ch <- response{status: status, body: append([]byte(nil), body...)}
		}
	}
}

// fail terminates every pending and future call with err.
func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed == nil {
		c.closed = err
	}
	for id, ch := range c.waiters {
		delete(c.waiters, id)
		ch <- response{status: StatusErr, body: []byte(c.closed.Error())}
	}
}

// call sends one request and waits for its response.  Other goroutines'
// calls pipeline freely in between.
func (c *Client) call(req *Request) (response, error) {
	c.mu.Lock()
	if c.closed != nil {
		err := c.closed
		c.mu.Unlock()
		return response{}, err
	}
	c.nextID++
	req.ID = c.nextID
	ch := make(chan response, 1)
	c.waiters[req.ID] = ch
	c.mu.Unlock()

	payload, err := EncodeRequest(req)
	if err == nil {
		c.writeMu.Lock()
		err = frame.Write(c.conn, payload, MaxFrame)
		c.writeMu.Unlock()
	}
	if err != nil {
		c.mu.Lock()
		delete(c.waiters, req.ID)
		c.mu.Unlock()
		return response{}, err
	}
	resp := <-ch
	if resp.status == StatusShutdown {
		return resp, errShutdown
	}
	if resp.status == StatusErr {
		return resp, fmt.Errorf("server: %s", resp.body)
	}
	return resp, nil
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, err := c.call(&Request{Op: OpPing})
	return err
}

// Get implements workload.Domain.
func (c *Client) Get(key []byte) ([]byte, bool, error) {
	resp, err := c.call(&Request{Op: OpGet, Key: key})
	if err != nil {
		return nil, false, err
	}
	if resp.status == StatusNotFound {
		return nil, false, nil
	}
	return resp.body, true, nil
}

// Put implements workload.Domain.
func (c *Client) Put(key, val []byte) error {
	_, err := c.call(&Request{Op: OpPut, Key: key, Val: val})
	return err
}

// Delete implements workload.Domain.
func (c *Client) Delete(key []byte) (bool, error) {
	resp, err := c.call(&Request{Op: OpDelete, Key: key})
	if err != nil {
		return false, err
	}
	if len(resp.body) != 1 {
		return false, errMalformed
	}
	return resp.body[0] == 1, nil
}

// Range implements workload.Domain by iterating scan chunks.  Chunk N+1
// resumes just past chunk N's last key, so the scan is consistent per chunk
// (not snapshot-consistent across chunks — same as iterating a live tree).
func (c *Client) Range(lo, hi []byte, fn func(key, val []byte) bool) error {
	cursor := append([]byte(nil), lo...)
	for {
		resp, err := c.call(&Request{Op: OpScan, Lo: cursor, Hi: hi, N: defaultScanChunk})
		if err != nil {
			return err
		}
		pairs, more, err := decodeScanChunk(resp.body)
		if err != nil {
			return err
		}
		for _, p := range pairs {
			if !fn(p.Key, p.Val) {
				return nil
			}
		}
		if !more || len(pairs) == 0 {
			return nil
		}
		last := pairs[len(pairs)-1].Key
		// Smallest key strictly greater than last: append a zero byte.
		cursor = append(append([]byte(nil), last...), 0)
	}
}

// Check implements workload.Domain.
func (c *Client) Check() error {
	_, err := c.call(&Request{Op: OpCheck})
	return err
}

// Stats fetches the server's stats lines as a name -> value map; boolean
// values arrive as 0/1.
func (c *Client) Stats() (map[string]int64, error) {
	resp, err := c.call(&Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(strings.TrimSpace(string(resp.body)), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%w: stats line %q", errMalformed, line)
		}
		switch val {
		case "true":
			out[name] = 1
		case "false":
			out[name] = 0
		default:
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: stats line %q", errMalformed, line)
			}
			out[name] = n
		}
	}
	return out, nil
}
