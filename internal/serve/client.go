package serve

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pstap/internal/cube"
	"pstap/internal/stap"
	"pstap/internal/wire"
)

// Client is a stapd connection. It is safe for concurrent use: requests
// are serialized onto the wire and responses are demultiplexed by ID, so
// many goroutines can have jobs in flight on one connection.
type Client struct {
	conn net.Conn

	wmu sync.Mutex   // serializes request frames
	fw  *wire.Writer // the connection's one write buffer, guarded by wmu

	mu       sync.Mutex
	pending  map[uint64]chan *Response
	readErr  error
	readDone chan struct{}

	nextID atomic.Uint64
}

// Dial connects to a stapd server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:     conn,
		fw:       wire.NewWriter(conn),
		pending:  make(map[uint64]chan *Response),
		readDone: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// readLoop demultiplexes response frames to their waiting callers,
// reading every frame through the connection's one read buffer.
func (c *Client) readLoop() {
	fr := wire.NewReader(c.conn)
	for {
		resp := &Response{}
		if _, err := fr.ReadFrame(resp); err != nil {
			c.mu.Lock()
			c.readErr = fmt.Errorf("serve: connection lost: %w", err)
			close(c.readDone)
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

// Do sends one request and waits for its response frame. The request ID
// is assigned by the client.
func (c *Client) Do(req *Request) (*Response, error) {
	req.ID = c.nextID.Add(1)
	ch := make(chan *Response, 1)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	c.pending[req.ID] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	_, err := c.fw.WriteFrame(wire.Plain, req)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-c.readDone:
		// The reader may have delivered our response just before failing.
		select {
		case resp := <-ch:
			return resp, nil
		default:
		}
		c.mu.Lock()
		err := c.readErr
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, err
	}
}

// Submit processes one job (an independent CPI sequence) and returns the
// per-CPI detection reports. A backpressure rejection surfaces as a
// *BusyError; other failures surface as a *JobError carrying the
// server's typed status code.
func (c *Client) Submit(cpis []*cube.Cube) ([][]stap.Detection, error) {
	resp, err := c.Do(&Request{CPIs: cpis})
	if err != nil {
		return nil, err
	}
	switch resp.Status {
	case StatusOK:
		return resp.Detections, nil
	case StatusBusy:
		return nil, &BusyError{RetryAfter: time.Duration(resp.RetryAfterMs) * time.Millisecond}
	default:
		return nil, &JobError{Code: resp.Status, Msg: resp.Err}
	}
}

// SubmitRetry submits like Submit but honors busy rejections by backing
// off and retrying, up to the given number of attempts.
func (c *Client) SubmitRetry(cpis []*cube.Cube, attempts int) ([][]stap.Detection, error) {
	var lastErr error
	for i := 0; i < attempts; i++ {
		dets, err := c.Submit(cpis)
		var busy *BusyError
		if err == nil {
			return dets, nil
		}
		if !asBusy(err, &busy) {
			return nil, err
		}
		lastErr = err
		time.Sleep(busy.RetryAfter)
	}
	return nil, fmt.Errorf("serve: gave up after %d attempts: %w", attempts, lastErr)
}

// asBusy reports whether err is a *BusyError, storing it through target.
func asBusy(err error, target **BusyError) bool {
	be, ok := err.(*BusyError)
	if ok {
		*target = be
	}
	return ok
}

// Close tears down the connection; in-flight Do calls fail.
func (c *Client) Close() error {
	return c.conn.Close()
}
