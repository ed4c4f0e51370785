package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"xrefine/internal/obs"
	"xrefine/internal/server"
)

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("wire: server closed")

// pipelineDepth bounds how many decoded requests may queue behind an
// executing one per connection; beyond it the reader stops pulling frames
// and TCP backpressure reaches the client. The protective edges — deadline,
// admission gate — are the pipeline's, shared with every other surface.
const pipelineDepth = 32

// helloBody is the feature document OpHello answers with.
var helloBody = []byte(`{"version":1,"features":["pipelining","trace-id","retry-hint"]}` + "\n")

// Server is the binary codec over a server.Pipeline, serving persistent
// connections. Each connection runs two goroutines: a reader that frames
// and decodes requests, and a worker that hands them to the pipeline in
// order — so a pipeline of requests overlaps decode with query execution
// while responses still come back in request order. All per-request state
// (frame buffers, decode scratch, the response encode buffer, the term
// intern table) is per-connection and reused, which is what keeps the
// steady-state path within the engine's ≤2-allocs-per-request envelope.
type Server struct {
	pipe  *server.Pipeline
	sf    *server.Surface
	query *server.Route

	mConns *obs.Counter
	mOpen  *obs.Gauge
	// Counters of the requests answered without entering the pipeline.
	mPing, mHello, mFrameErr *obs.Counter

	baseCtx    context.Context
	baseCancel context.CancelFunc
	inShutdown atomic.Bool
	wg         sync.WaitGroup

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
}

// NewServer builds a wire server over the process's request pipeline (the
// one server.New built), so its queries share the admission gate, the
// deadline and the tracing with HTTP. Metrics land in the backend's
// registry under the xrefine_wire_* namespace; a metrics-disabled backend
// serves untracked.
func NewServer(pipe *server.Pipeline) *Server {
	sf := pipe.Surface("wire", "op")
	s := &Server{
		pipe:      pipe,
		sf:        sf,
		query:     sf.Route("query", "wire:query"),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*conn]struct{}),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	reg := pipe.Backend().Metrics()
	s.mConns = reg.Counter("xrefine_wire_connections_total",
		"Wire connections accepted.")
	s.mOpen = reg.Gauge("xrefine_wire_connections_open",
		"Wire connections currently open.")
	reqs := sf.Requests()
	s.mPing = reqs.With("ping", "200")
	s.mHello = reqs.With("hello", "200")
	s.mFrameErr = reqs.With("frame", "400")
	return s
}

// Serve accepts connections on l until Shutdown. Each connection gets its
// own reader/worker pair; Serve itself only accepts.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.inShutdown.Load() {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		nc, err := l.Accept()
		if err != nil {
			if s.inShutdown.Load() {
				return ErrServerClosed
			}
			return err
		}
		if s.inShutdown.Load() {
			nc.Close()
			continue
		}
		s.wg.Add(1)
		go s.serveConn(nc)
	}
}

// Shutdown drains: it stops accepting, lets queued and in-flight
// requests on every connection finish and flush, then closes the
// connections. If ctx expires first the remaining work is cancelled and
// connections are closed immediately — the same two-phase drain the HTTP
// surface gets from http.Server.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.inShutdown.Store(true)
	s.mu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	// Unblock every reader parked in a frame read; with the shutdown flag
	// up they treat the deadline as "no more requests" rather than a
	// disconnect, so queued work still completes.
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// pendingReq is one framed request travelling from the reader to the
// worker. Instances cycle through a per-connection freelist so the
// steady state allocates none.
type pendingReq struct {
	buf []byte  // owned copy of the frame payload
	req Request // decoded view; Terms alias buf

	// Decode-failure report, answered in pipeline order like any result.
	errCode  uint16
	errMsg   string
	closeNow bool // framing violation: answer, then close the connection
}

// conn is one persistent client connection.
type conn struct {
	srv    *Server
	nc     net.Conn
	ctx    context.Context
	cancel context.CancelFunc
	// reqCtx carries one ReqInfo the pipeline re-arms per request: the
	// worker serves strictly one request at a time.
	reqCtx context.Context

	pending chan *pendingReq
	free    chan *pendingReq

	rbuf   []byte            // reader: frame payload scratch
	wbuf   []byte            // worker: response frame scratch
	wout   *connWriter       // worker: buffered writes to nc
	intern map[string]string // worker: term interning table
}

// connWriter is a minimal buffered writer (bufio.Writer's Write path
// allocates nothing either, but an explicit one keeps the flush policy
// visible and the buffer reusable by size).
type connWriter struct {
	nc  net.Conn
	buf []byte
	err error
}

const writeBufSize = 64 << 10

func (w *connWriter) Write(p []byte) {
	if w.err != nil {
		return
	}
	if len(w.buf)+len(p) <= writeBufSize || len(w.buf) == 0 {
		w.buf = append(w.buf, p...)
		return
	}
	w.Flush()
	w.buf = append(w.buf, p...)
}

func (w *connWriter) Flush() {
	if w.err != nil || len(w.buf) == 0 {
		return
	}
	_, w.err = w.nc.Write(w.buf)
	w.buf = w.buf[:0]
}

func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	c := &conn{
		srv:     s,
		nc:      nc,
		pending: make(chan *pendingReq, pipelineDepth),
		free:    make(chan *pendingReq, pipelineDepth+1),
		rbuf:    make([]byte, 0, 4096),
		wbuf:    make([]byte, 0, 4096),
		wout:    &connWriter{nc: nc, buf: make([]byte, 0, 4096)},
		intern:  make(map[string]string),
	}
	c.ctx, c.cancel = context.WithCancel(s.baseCtx)
	c.reqCtx = obs.WithReqInfo(c.ctx, obs.NewReqInfo())
	s.mu.Lock()
	if s.inShutdown.Load() {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.mConns.Inc()
	s.mOpen.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.mOpen.Add(-1)
		c.cancel()
		nc.Close()
	}()
	go c.readLoop()
	c.workLoop()
}

// readLoop frames and decodes requests in arrival order. Decoding here,
// on the reader goroutine, overlaps the next request's parse with the
// current query's execution — the pipelining win beyond saved
// round-trips. On any transport error the in-flight query is cancelled
// promptly (a mid-pipeline disconnect must not keep burning engine time);
// the exception is the drain deadline, which means "finish what you
// have".
func (c *conn) readLoop() {
	defer close(c.pending)
	for {
		buf, payload, err := ReadFrame(c.nc, c.rbuf, MaxRequestFrame)
		c.rbuf = buf
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				c.enqueueError(CodeFrameTooBig, err.Error(), true)
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && c.srv.inShutdown.Load() {
				return // draining: answer what is queued, send no more
			}
			// EOF, reset, or a frame cut mid-payload: the client is gone
			// or the stream is unrecoverable. Cancel promptly.
			c.cancel()
			return
		}
		pr := c.takeReq()
		pr.buf = append(pr.buf[:0], payload...)
		if err := pr.req.Decode(pr.buf); err != nil {
			pr.errCode, pr.errMsg = CodeBadRequest, err.Error()
			// A structurally bad body is answered and the connection
			// stays usable (byte alignment is intact; version mismatch
			// in particular must leave room to negotiate down).
			pr.closeNow = false
		}
		select {
		case c.pending <- pr:
		case <-c.ctx.Done():
			return
		}
	}
}

func (c *conn) takeReq() *pendingReq {
	select {
	case pr := <-c.free:
		pr.errCode, pr.errMsg, pr.closeNow = 0, "", false
		return pr
	default:
		return &pendingReq{}
	}
}

func (c *conn) enqueueError(code uint16, msg string, closeNow bool) {
	pr := c.takeReq()
	pr.errCode, pr.errMsg, pr.closeNow = code, msg, closeNow
	select {
	case c.pending <- pr:
	case <-c.ctx.Done():
	}
}

// workLoop executes queued requests in order and writes responses,
// flushing whenever the pipeline runs dry so a lone request is answered
// immediately while a burst shares one syscall.
func (c *conn) workLoop() {
	closing := false
	for pr := range c.pending {
		if !closing {
			closing = c.handle(pr)
			if len(c.pending) == 0 || closing {
				c.wout.Flush()
			}
			if closing || c.wout.err != nil {
				closing = true
				c.cancel()
				c.nc.Close() // unblocks the reader; remaining frames drain below
			}
		}
		select {
		case c.free <- pr:
		default:
		}
	}
	c.wout.Flush()
}

// handle answers one request and reports whether the connection must
// close afterwards. The pipeline contains panics below it; the recover
// here covers the codec's own decode and encode steps.
func (c *conn) handle(pr *pendingReq) (closeConn bool) {
	defer func() {
		if v := recover(); v != nil {
			c.srv.sf.Recovered("wire frame", v)
			c.wbuf = AppendError(c.wbuf[:0], pr.req.Trace, CodeInternal, "internal error")
			c.wout.Write(c.wbuf)
		}
	}()
	if pr.errCode != 0 {
		c.srv.mFrameErr.Inc()
		c.wbuf = AppendError(c.wbuf[:0], pr.req.Trace, pr.errCode, pr.errMsg)
		c.wout.Write(c.wbuf)
		return pr.closeNow
	}
	switch pr.req.Op {
	case OpPing:
		c.srv.mPing.Inc()
		c.wbuf, _ = appendRespHeader(c.wbuf[:0], StatusOK, pr.req.Trace)
		c.wbuf = patchFrameLen(c.wbuf, 0)
	case OpHello:
		c.srv.mHello.Inc()
		c.wbuf, _ = appendRespHeader(c.wbuf[:0], StatusOK, pr.req.Trace)
		c.wbuf = append(c.wbuf, helloBody...)
		c.wbuf = patchFrameLen(c.wbuf, 0)
	default:
		c.handleQuery(&pr.req)
	}
	c.wout.Write(c.wbuf)
	return false
}

// handleQuery is the binary hot path: frame → request, the pipeline, and
// the zero-copy encode of its Outcome into c.wbuf. Its per-request
// allocations are the terms slice the engine retains (responses and the
// query cache keep it, so it cannot be pooled) and whatever the pipeline
// and engine themselves do — the TestWireAllocOverhead ratchet holds the
// full round-trip to within two allocations of a direct engine call.
func (c *conn) handleQuery(req *Request) {
	// The term strings come from the per-connection intern table, so a
	// repeated vocabulary costs one small allocation per request, not one
	// per term.
	terms := make([]string, 0, len(req.Terms))
	for _, tb := range req.Terms {
		terms = append(terms, c.internTerm(tb))
	}
	k := req.K
	if k <= 0 {
		k = server.DefaultK
	}
	out := c.srv.pipe.Search(c.reqCtx, c.srv.query, &server.SearchRequest{Terms: terms,
		K: k, Trace: req.Trace})
	switch out.Code {
	case 200:
		c.wbuf, _ = appendRespHeader(c.wbuf[:0], StatusOK, out.Trace)
		c.wbuf = AppendSearchBody(c.wbuf, out.Resp, c.srv.pipe.Backend())
		c.wbuf = patchFrameLen(c.wbuf, 0)
	case 503:
		c.wbuf = AppendRetry(c.wbuf[:0], out.Trace, out.RetryAfter, out.Err.Error())
	case CodeCancelled:
		// The client is normally gone; the write surfaces that and closes
		// the connection via workLoop's error check.
		c.wbuf = AppendError(c.wbuf[:0], out.Trace, CodeCancelled, "client closed request")
	default:
		c.wbuf = AppendError(c.wbuf[:0], out.Trace, uint16(out.Code), out.Err.Error())
	}
}

// internMaxEntries bounds the per-connection intern table so an
// adversarial vocabulary cannot grow memory without bound; past the cap
// terms are copied per request instead.
const internMaxEntries = 4096

// internTerm returns a stable string for the term bytes. The map lookup
// on a []byte key compiles without a conversion allocation, so a warm
// vocabulary makes this free.
func (c *conn) internTerm(tb []byte) string {
	if s, ok := c.intern[string(tb)]; ok {
		return s
	}
	s := string(tb)
	if len(c.intern) < internMaxEntries {
		c.intern[s] = s
	}
	return s
}
