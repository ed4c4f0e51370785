package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/obs"
	"xrefine/internal/server"
	"xrefine/internal/testutil"
)

// These tests hold the two codecs to the one pipeline under them: what the
// pipeline decides — shed, degrade, contain, cancel, trace, account — must
// come out of both surfaces, and a limit one surface exhausts must bind the
// other.

// hookBackend is an engine whose queries run a test hook first: the way to
// park, fail or crash a request inside the pipeline.
type hookBackend struct {
	*core.Engine
	hook func(ctx context.Context, terms []string) error
}

func (b *hookBackend) QueryTermsCtx(ctx context.Context, terms []string, strategy core.Strategy, k, parallelism int) (*core.Response, error) {
	if err := b.hook(ctx, terms); err != nil {
		return nil, err
	}
	return b.Engine.QueryTermsCtx(ctx, terms, strategy, k, parallelism)
}

// bothSurfaces builds one pipeline over a hooked engine and serves it on
// HTTP (the returned handler) and on wire (the returned address).
func bothSurfaces(t *testing.T, cfg server.Config, hook func(context.Context, []string) error) (*hookBackend, *server.Server, string) {
	t.Helper()
	be := &hookBackend{Engine: testEngine(t), hook: hook}
	h := server.New(be, cfg)
	_, addr := serveWire(t, h.Pipeline())
	return be, h, addr
}

// parkOn returns a hook that parks queries containing term until release
// is closed, signalling entered once the first one is inside the pipeline.
func parkOn(term string) (hook func(context.Context, []string) error, entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once atomic.Bool
	return func(_ context.Context, terms []string) error {
		if terms[0] == term {
			if once.CompareAndSwap(false, true) {
				close(entered)
			}
			<-release
		}
		return nil
	}, entered, release
}

// finishCode waits for the finish event of trace on a route and returns
// the status code the pipeline accounted it under.
func finishCode(t *testing.T, reg *obs.Registry, trace obs.TraceID, note string) int {
	t.Helper()
	code := 0
	testutil.Eventually(t, 5*time.Second, func() bool {
		for _, e := range reg.Flight().Events(obs.EventFilter{Trace: trace, Kind: obs.EvFinish}) {
			if e.Note == note {
				code = int(e.N)
				return true
			}
		}
		return false
	}, "no %s finish event for trace %s", note, trace)
	return code
}

// TestGateSharedAcrossSurfaces: -max-inflight is one number for the
// process. With MaxInFlight 1, a stuck HTTP /search makes a concurrent
// wire query answer StatusRetry, and a stuck wire query makes HTTP 503.
func TestGateSharedAcrossSurfaces(t *testing.T) {
	t.Run("http holds, wire sheds", func(t *testing.T) {
		hook, entered, release := parkOn("stuck")
		_, h, addr := bothSurfaces(t, server.Config{MaxInFlight: 1}, hook)
		done := make(chan int, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=stuck", nil))
			done <- rec.Code
		}()
		<-entered
		resp, err := dial(t, addr).Query(0, byte(core.StrategyPartition), 3, 0, []string{"database"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusRetry {
			t.Errorf("wire query beside a stuck HTTP request: status %d (%s), want StatusRetry", resp.Status, resp.Payload)
		}
		close(release)
		if code := <-done; code != http.StatusOK {
			t.Errorf("gate holder finished %d, want 200", code)
		}
	})
	t.Run("wire holds, http sheds", func(t *testing.T) {
		hook, entered, release := parkOn("stuck")
		_, h, addr := bothSurfaces(t, server.Config{MaxInFlight: 1}, hook)
		c := dial(t, addr)
		c.Send(0, byte(core.StrategyPartition), 3, 0, []string{"stuck"})
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		<-entered
		if code, body := httpSearch(t, h, "database", 3); code != http.StatusServiceUnavailable {
			t.Errorf("HTTP /search beside a stuck wire query = %d %s, want 503", code, body)
		}
		close(release)
		if resp, err := c.Recv(); err != nil || resp.Status != StatusOK {
			t.Errorf("gate holder: %v %+v", err, resp)
		}
	})
}

// TestWireQueriesAreObservable: a wire query is a first-class citizen of
// the observability HTTP queries get. Its explicit trace ID resolves at
// /debug/trace/<id>, it lands in /debug/slowlog under its terms, and a
// wire-side 500 burns the availability SLO.
func TestWireQueriesAreObservable(t *testing.T) {
	boom := errors.New("backend down")
	_, h, addr := bothSurfaces(t, server.Config{SlowLogThreshold: time.Nanosecond},
		func(_ context.Context, terms []string) error {
			if terms[0] == "boom" {
				return boom
			}
			return nil
		})
	c := dial(t, addr)
	getJSON := func(path string) (int, map[string]any) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: %v\n%s", path, err, rec.Body)
		}
		return rec.Code, body
	}
	burn := func() float64 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		exp, err := obs.ParsePrometheus(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, sm := range exp.Samples {
			if sm.Name == "xrefine_slo_availability_burn_5m" {
				return sm.Value
			}
		}
		t.Fatal("no xrefine_slo_availability_burn_5m sample")
		return 0
	}

	const trace = obs.TraceID(0xfeedface0001)
	resp, err := c.Query(trace, byte(core.StrategyPartition), 3, 0, []string{"databse", "query"})
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("wire query: %v %+v", err, resp)
	}
	code, rt := getJSON("/debug/trace/" + trace.String())
	if code != http.StatusOK || rt["query"] != "databse query" || rt["trace"] == nil {
		t.Errorf("/debug/trace/%s = %d %v, want the wire query's retained span tree", trace, code, rt)
	}
	_, sl := getJSON("/debug/slowlog")
	entries, _ := sl["entries"].([]any)
	if len(entries) != 1 {
		t.Fatalf("slowlog entries = %v, want the one wire query", sl["entries"])
	}
	if e := entries[0].(map[string]any); e["query"] != "databse query" || e["trace_id"] != trace.String() {
		t.Errorf("slowlog entry = %v, want query %q under trace %s", e, "databse query", trace)
	}

	if b := burn(); b != 0 {
		t.Fatalf("availability burn before any failure = %v", b)
	}
	resp, err = c.Query(0, byte(core.StrategyPartition), 3, 0, []string{"boom"})
	if err != nil || resp.Status != StatusError || resp.Code != CodeInternal {
		t.Fatalf("failing wire query: %v %+v, want error 500", err, resp)
	}
	if b := burn(); b <= 0 {
		t.Errorf("availability burn after a wire-side 500 = %v, want > 0", b)
	}
}

// TestPipelineEdges drives each protective edge of the pipeline once per
// surface. The body is shared — provoke the edge, then check the pipeline
// accounted the request under the expected code on that surface's route —
// and each codec contributes only the assertion on its own envelope.
func TestPipelineEdges(t *testing.T) {
	type answer struct {
		code       int // HTTP status, or its wire mapping
		retryAfter int
		body       []byte
	}
	cases := []struct {
		name string
		cfg  server.Config
		// hook is the backend behaviour of the probed query ("probe" is its
		// first term); held parks a second request in the only gate slot.
		hook func(ctx context.Context) error
		held bool
		// hangUp has the client go away once the probe is inside.
		hangUp bool
		want   int
		check  func(t *testing.T, a answer)
	}{
		{name: "shed", cfg: server.Config{MaxInFlight: 1}, held: true, want: 503,
			check: func(t *testing.T, a answer) {
				if a.retryAfter < 1 || a.retryAfter > 3 {
					t.Errorf("retry hint %d outside the jitter window [1,3]", a.retryAfter)
				}
				if !bytes.Contains(a.body, []byte("server at capacity")) {
					t.Errorf("shed message = %q", a.body)
				}
			}},
		{name: "deadline degrades", cfg: server.Config{Timeout: time.Nanosecond}, want: 200,
			check: func(t *testing.T, a answer) {
				if !bytes.Contains(a.body, []byte(`"degraded_reason": "deadline"`)) {
					t.Errorf("overrun query not flagged degraded: %s", a.body)
				}
			}},
		{name: "panic contained", cfg: server.Config{MaxInFlight: 1}, want: 500,
			hook: func(context.Context) error { panic("backend bug") },
			check: func(t *testing.T, a answer) {
				if !bytes.Contains(a.body, []byte("internal error")) || bytes.Contains(a.body, []byte("backend bug")) {
					t.Errorf("panic answer = %q, want the opaque internal error", a.body)
				}
			}},
		{name: "client cancel", want: 499, hangUp: true,
			hook: func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }},
	}
	for _, tc := range cases {
		for _, surface := range []string{"http", "wire"} {
			tc, surface := tc, surface
			t.Run(tc.name+"/"+surface, func(t *testing.T) {
				park, parked, release := parkOn("stuck")
				inside := make(chan struct{})
				be, h, addr := bothSurfaces(t, tc.cfg, func(ctx context.Context, terms []string) error {
					if terms[0] == "probe" && tc.hook != nil {
						close(inside)
						return tc.hook(ctx)
					}
					return park(ctx, terms)
				})
				if tc.held {
					holder := dial(t, addr)
					holder.Send(0, byte(core.StrategyPartition), 3, 0, []string{"stuck"})
					if err := holder.Flush(); err != nil {
						t.Fatal(err)
					}
					<-parked
					defer close(release)
				}

				const trace = obs.TraceID(0xed9e0001)
				var a answer
				note := "wire:query"
				if surface == "http" {
					note = "/search"
					// HTTP mints its own trace IDs; read it off the admit event.
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					if tc.hangUp {
						go func() { <-inside; cancel() }()
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=probe+database", nil).WithContext(ctx))
					a = answer{code: rec.Code, body: rec.Body.Bytes()}
					a.retryAfter, _ = strconv.Atoi(rec.Header().Get("Retry-After"))
				} else {
					c := dial(t, addr)
					c.Send(trace, byte(core.StrategyPartition), 3, 0, []string{"probe", "database"})
					if err := c.Flush(); err != nil {
						t.Fatal(err)
					}
					if tc.hangUp {
						// The wire client's way of cancelling is to go away;
						// there is no envelope left to assert on.
						<-inside
						c.Close()
						a.code = tc.want
					} else {
						resp, err := c.Recv()
						if err != nil {
							t.Fatal(err)
						}
						a = answer{retryAfter: resp.RetryAfter, body: append([]byte(nil), resp.Payload...)}
						switch resp.Status {
						case StatusOK:
							a.code = 200
						case StatusRetry:
							a.code = 503
						default:
							a.code = int(resp.Code)
						}
						if resp.Trace != trace {
							t.Errorf("trace echo = %s, want %s", resp.Trace, trace)
						}
					}
				}

				if a.code != tc.want {
					t.Errorf("%s answered %d (%s), want %d", surface, a.code, a.body, tc.want)
				}
				if tc.check != nil {
					tc.check(t, a)
				}
				// The pipeline's own books: the finish event on this surface's
				// route carries the same code.
				var id obs.TraceID = trace
				if surface == "http" {
					for _, e := range be.Metrics().Flight().Events(obs.EventFilter{Kind: obs.EvAdmit}) {
						if e.Note == note {
							id = e.Trace
						}
					}
				}
				if got := finishCode(t, be.Metrics(), id, note); got != tc.want {
					t.Errorf("pipeline accounted the request as %d, want %d", got, tc.want)
				}
				// The edge fired for this request alone: the slot is back and
				// the next query on either surface is served.
				if !tc.held && tc.cfg.Timeout == 0 {
					if code, body := httpSearch(t, h, "database", 3); code != http.StatusOK {
						t.Errorf("HTTP query after %s = %d %s", tc.name, code, body)
					}
					if resp, err := dial(t, addr).Query(0, byte(core.StrategyPartition), 3, 0, []string{"database"}); err != nil || resp.Status != StatusOK {
						t.Errorf("wire query after %s: %v %+v", tc.name, err, resp)
					}
				}
			})
		}
	}
}
