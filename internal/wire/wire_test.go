package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/kvstore"
	"xrefine/internal/obs"
	"xrefine/internal/server"
	"xrefine/internal/storage"
	"xrefine/internal/testutil"
	"xrefine/internal/tokenize"
)

// startServer serves a wire server over a pipeline with no edges on a
// loopback listener and returns its address.
func startServer(t *testing.T, eng server.Backend, opts Options) (*Server, string) {
	t.Helper()
	return serveWire(t, server.New(eng, server.Config{}).Pipeline(), opts)
}

// serveWire is startServer over a pipeline the caller built (and may share
// with an HTTP handler). Serve's exit error is checked at cleanup.
func serveWire(t *testing.T, pipe *server.Pipeline, opts Options) (*Server, string) {
	t.Helper()
	srv := NewServer(pipe, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil && !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, l.Addr().String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func testEngine(t *testing.T) *core.Engine {
	t.Helper()
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return core.NewFromDocument(doc, nil)
}

// TestWireQueryRoundTrip drives one query end to end over TCP and pins
// the payload to the HTTP body for the same engine response.
func TestWireQueryRoundTrip(t *testing.T) {
	eng := testEngine(t)
	_, addr := startServer(t, eng, Options{})
	c := dial(t, addr)

	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	terms := tokenize.Query("databse quary")
	resp, err := c.Query(0, byte(core.StrategyPartition), 3, 0, terms)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("status %d: %s", resp.Status, resp.Payload)
	}
	if resp.Trace == 0 {
		t.Error("server did not mint a trace id")
	}
	want, err := eng.QueryTermsCtx(context.Background(), terms, core.StrategyPartition, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := server.EncodeBody(&buf, server.SearchBody(eng, want, nil)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Payload, buf.Bytes()) {
		t.Errorf("wire payload differs from HTTP body\n got: %q\nwant: %q", resp.Payload, buf.Bytes())
	}
}

// TestWireTraceEcho verifies a client-supplied trace ID is used verbatim
// and shows up in the flight recorder's admit/finish bracket.
func TestWireTraceEcho(t *testing.T) {
	eng := testEngine(t)
	_, addr := startServer(t, eng, Options{})
	c := dial(t, addr)
	const trace = obs.TraceID(0xdeadbeefcafe)
	resp, err := c.Query(trace, byte(core.StrategyPartition), 3, 0, []string{"database"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != trace {
		t.Fatalf("trace echo: got %s want %s", resp.Trace, trace)
	}
	evs := eng.Metrics().Flight().Events(obs.EventFilter{Trace: trace})
	var admit, finish bool
	for _, e := range evs {
		admit = admit || (e.Kind == obs.EvAdmit && e.Note == "wire:query")
		finish = finish || (e.Kind == obs.EvFinish && e.Note == "wire:query" && e.N == 200)
	}
	if !admit || !finish {
		t.Errorf("flight recorder missing wire admit/finish for %s: admit=%v finish=%v (%d events)",
			trace, admit, finish, len(evs))
	}
}

// TestWirePipelinedInOrder floods one connection with pipelined requests
// and requires the responses to come back in request order, each with
// its own trace echoed. Run under -race this also exercises the
// reader/worker handoff.
func TestWirePipelinedInOrder(t *testing.T) {
	eng := testEngine(t)
	_, addr := startServer(t, eng, Options{})
	c := dial(t, addr)

	vocab := [][]string{
		{"database"}, {"query"}, {"xml"}, {"keyword"},
		{"database", "query"}, {"xml", "keyword"}, {"twig"}, {"search"},
	}
	const n = 64
	for i := 0; i < n; i++ {
		c.Send(obs.TraceID(1000+i), byte(core.StrategyPartition), 2, 0, vocab[i%len(vocab)])
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		resp, err := c.Recv()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("response %d: status %d: %s", i, resp.Status, resp.Payload)
		}
		if got, want := resp.Trace, obs.TraceID(1000+i); got != want {
			t.Fatalf("response %d out of order: trace %s want %s", i, got, want)
		}
		// Each payload names its own query terms, so a shuffled or reused
		// body would also be caught here.
		wantTerm := `"` + vocab[i%len(vocab)][0] + `"`
		if !bytes.Contains(resp.Payload, []byte(wantTerm)) {
			t.Fatalf("response %d: payload missing term %s", i, wantTerm)
		}
	}
}

// TestWireVersionMismatchKeepsConnection sends a future-version frame and
// requires a 400 error naming the supported version — with the
// connection still usable, so a client can negotiate down.
func TestWireVersionMismatchKeepsConnection(t *testing.T) {
	eng := testEngine(t)
	_, addr := startServer(t, eng, Options{})
	c := dial(t, addr)

	frame := AppendControl(nil, OpPing, 0)
	frame[4] = 99 // future version byte
	if _, err := c.nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	c.inflight++
	resp, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError || resp.Code != CodeBadRequest {
		t.Fatalf("got status=%d code=%d, want error 400", resp.Status, resp.Code)
	}
	if !strings.Contains(string(resp.Payload), "version") {
		t.Errorf("error should name the version problem: %q", resp.Payload)
	}
	// The same connection still answers.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after version error: %v", err)
	}
}

// TestWireBadFramesAnswered covers structurally invalid bodies: each gets
// a 400 in pipeline order and leaves the connection usable.
func TestWireBadFramesAnswered(t *testing.T) {
	eng := testEngine(t)
	_, addr := startServer(t, eng, Options{})
	c := dial(t, addr)

	bad := [][]byte{
		AppendControl(nil, 0x7f, 0),                   // unknown opcode
		AppendControl(nil, OpPing, 0),                 // valid; keeps order honest
		{0, 0, 0, 3, Version, OpQuery, 0},             // truncated header
		AppendRequest(nil, 0, 1, 3, 0, []string{"a"}), // strategy not served
	}
	for _, f := range bad {
		if _, err := c.nc.Write(f); err != nil {
			t.Fatal(err)
		}
		c.inflight++
	}
	wantStatus := []byte{StatusError, StatusOK, StatusError, StatusError}
	for i, want := range wantStatus {
		resp, err := c.Recv()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.Status != want {
			t.Fatalf("response %d: status %d want %d (%s)", i, resp.Status, want, resp.Payload)
		}
		if want == StatusError && resp.Code != CodeBadRequest {
			t.Fatalf("response %d: code %d want 400", i, resp.Code)
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after bad frames: %v", err)
	}
}

// TestWireOversizedFrameCloses sends a length prefix beyond
// MaxRequestFrame and requires a typed 413 error followed by connection
// close — never an allocation-driven OOM or a hang.
func TestWireOversizedFrameCloses(t *testing.T) {
	eng := testEngine(t)
	_, addr := startServer(t, eng, Options{})
	c := dial(t, addr)

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxRequestFrame+1)
	if _, err := c.nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	c.inflight++
	resp, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError || resp.Code != CodeFrameTooBig {
		t.Fatalf("got status=%d code=%d, want error 413", resp.Status, resp.Code)
	}
	if _, err := c.Recv(); err == nil {
		t.Fatal("connection should be closed after a framing violation")
	}
}

// slowEngine builds an engine whose cold queries pay per-page read
// latency, so an in-flight query is slow enough to shut down under.
func slowEngine(t *testing.T, latency time.Duration) *core.Engine {
	t.Helper()
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	builder := core.NewFromDocument(doc, nil)
	faults := &storage.Faults{}
	store := kvstore.NewMemWithFaults(faults)
	t.Cleanup(func() { store.Close() })
	if err := builder.SaveIndex(store); err != nil {
		t.Fatal(err)
	}
	faults.ReadLatency = latency
	store.DropCaches()
	eng, err := core.Open(store, &core.Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestWireDrainCompletesInFlight starts a slow query, shuts the server
// down mid-flight, and requires the response to still arrive complete —
// the wire surface's equivalent of http.Server.Shutdown draining.
func TestWireDrainCompletesInFlight(t *testing.T) {
	eng := slowEngine(t, time.Millisecond)
	srv, addr := startServer(t, eng, Options{})
	c := dial(t, addr)

	before := eng.Stats().Queries // read before sending: the query may start at once
	c.Send(0, byte(core.StrategyPartition), 3, 0, []string{"database", "query"})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, 10*time.Second, func() bool {
		return eng.Stats().Queries > before
	}, "query never started")

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	resp, err := c.Recv()
	if err != nil {
		t.Fatalf("drained response: %v", err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("drained response status %d: %s", resp.Status, resp.Payload)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// After drain the connection is closed and new connections are
	// refused (the listener is down).
	if _, err := c.Recv(); err == nil {
		t.Error("connection should be closed after drain")
	}
	if _, err := Dial(addr, 500*time.Millisecond); err == nil {
		t.Error("listener should be closed after shutdown")
	}
}

// TestWireRequestDecodeRejects locks in decoder bounds: adversarial
// payloads must return typed errors, never panic or allocate per the
// attacker's length fields.
func TestWireRequestDecodeRejects(t *testing.T) {
	var r Request
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"empty", nil, ErrTruncated},
		{"short-header", []byte{Version, OpQuery}, ErrTruncated},
		{"bad-version", append([]byte{99, OpQuery}, make([]byte, 10)...), ErrVersion},
		{"bad-opcode", append([]byte{Version, 0x44}, make([]byte, 10)...), ErrBadFrame},
		{"ping-with-body", append(AppendControl(nil, OpPing, 0)[4:], 'x'), ErrBadFrame},
		{"query-no-body", AppendControl(nil, OpQuery, 0)[4:], ErrTruncated},
		{"huge-term-count", func() []byte {
			p := AppendRequest(nil, 0, 0, 1, 0, []string{"a"})[4:]
			p = p[:len(p)-3] // strip the real terms
			p = append(p[:reqHeaderLen+3], 0xff, 0xff, 0xff, 0xff, 0x0f)
			return p
		}(), ErrBadFrame},
		{"trailing-bytes", append(AppendRequest(nil, 0, 0, 1, 0, []string{"a"})[4:], 0), ErrBadFrame},
		{"strategy-not-served", AppendRequest(nil, 0, 1, 1, 0, []string{"a"})[4:], ErrBadFrame},
		{"k-over-max", AppendRequest(nil, 0, 0, server.MaxK+1, 0, []string{"a"})[4:], ErrBadFrame},
		{"parallel-over-max", AppendRequest(nil, 0, 0, 1, server.MaxParallel+1, []string{"a"})[4:], ErrBadFrame},
		{"empty-term", func() []byte {
			p := AppendRequest(nil, 0, 0, 1, 0, []string{"a"})[4:]
			p[len(p)-2] = 0 // zero the term length, leaving a trailing byte
			return p
		}(), ErrBadFrame},
	}
	for _, tc := range cases {
		err := r.Decode(tc.payload)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestWireRequestRoundTrip pins the request codec to itself.
func TestWireRequestRoundTrip(t *testing.T) {
	frame := AppendRequest(nil, 42, byte(core.StrategyPartition), 7, 4, []string{"alpha", "beta", "gamma"})
	if got := binary.BigEndian.Uint32(frame); int(got) != len(frame)-4 {
		t.Fatalf("length prefix %d, frame body %d", got, len(frame)-4)
	}
	var r Request
	if err := r.Decode(frame[4:]); err != nil {
		t.Fatal(err)
	}
	if r.Op != OpQuery || r.Trace != 42 || r.K != 7 || r.Parallel != 4 {
		t.Fatalf("decoded %+v", r)
	}
	if len(r.Terms) != 3 || string(r.Terms[0]) != "alpha" || string(r.Terms[2]) != "gamma" {
		t.Fatalf("terms %q", r.Terms)
	}
}
