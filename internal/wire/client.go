package wire

import (
	"fmt"
	"net"
	"time"

	"xrefine/internal/obs"
)

// Client speaks the wire protocol over one persistent connection. It is
// single-owner (not safe for concurrent use); pipelining is explicit —
// queue with Send, push with Flush, collect with Recv — and Query wraps
// the three for the one-at-a-time case. Receive buffers are reused, so a
// Response and its Payload are valid only until the next Recv.
type Client struct {
	nc       net.Conn
	wbuf     []byte
	rbuf     []byte
	resp     Response
	inflight int
}

// Dial connects to a wire server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{
		nc:   nc,
		wbuf: make([]byte, 0, 4096),
		rbuf: make([]byte, 0, 4096),
	}, nil
}

// Close closes the connection. In-flight requests are abandoned; the
// server cancels their queries promptly.
func (c *Client) Close() error { return c.nc.Close() }

// Send queues one query request. Terms must be pre-tokenized with
// tokenize.Query — the same normalization the HTTP handler applies to
// ?q= — for the surfaces to answer identically. A zero trace asks the
// server to mint one.
func (c *Client) Send(trace obs.TraceID, strategy byte, k, parallel int, terms []string) {
	c.wbuf = AppendRequest(c.wbuf, trace, strategy, k, parallel, terms)
	c.inflight++
}

// Flush writes every queued request in one batch.
func (c *Client) Flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	_, err := c.nc.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

// Recv reads the next response in pipeline order. The returned Response
// aliases the client's receive buffer.
func (c *Client) Recv() (*Response, error) {
	if err := c.Flush(); err != nil {
		return nil, err
	}
	buf, payload, err := ReadFrame(c.nc, c.rbuf, MaxResponseFrame)
	c.rbuf = buf
	if err != nil {
		return nil, err
	}
	if c.inflight > 0 {
		c.inflight--
	}
	if err := DecodeResponse(payload, &c.resp); err != nil {
		return nil, err
	}
	return &c.resp, nil
}

// Query sends one query and waits for its response — Send, Flush, Recv.
func (c *Client) Query(trace obs.TraceID, strategy byte, k, parallel int, terms []string) (*Response, error) {
	c.Send(trace, strategy, k, parallel, terms)
	return c.Recv()
}

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	c.wbuf = AppendControl(c.wbuf, OpPing, 0)
	c.inflight++
	resp, err := c.Recv()
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("wire: ping answered status %d: %s", resp.Status, resp.Payload)
	}
	return nil
}

// Hello negotiates and returns the server's feature document (JSON).
func (c *Client) Hello() ([]byte, error) {
	c.wbuf = AppendControl(c.wbuf, OpHello, 0)
	c.inflight++
	resp, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, fmt.Errorf("wire: hello answered status %d: %s", resp.Status, resp.Payload)
	}
	return resp.Payload, nil
}
