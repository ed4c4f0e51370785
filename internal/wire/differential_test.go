package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/server"
	"xrefine/internal/shard"
	"xrefine/internal/tokenize"
	"xrefine/internal/xmltree"
)

// The HTTP-differential conformance suite: the binary surface must be a
// transport, not a dialect. For the same engine state and the same query
// mix — every k, sharded and replicated backends,
// live updates, degradation — the payload inside a wire OK frame must be
// byte-identical to the HTTP /search response body, including degraded
// markers and reasons. Each surface gets its own engine built from the
// same document so caches and counters cannot leak across the
// comparison; byte equality is then evidence about the code paths, not
// shared state.

var diffQueries = []string{
	"database query",
	"databse quary",     // misspellings force refinement
	"keyword serch xml", // partial mismatch
	"twig matching pattern",
}

// httpSearch fetches the /search body from an HTTP server. k < 0 omits
// the parameter to exercise the handler's default.
func httpSearch(t *testing.T, h http.Handler, q string, k int) (int, string) {
	t.Helper()
	v := url.Values{"q": {q}}
	if k >= 0 {
		v.Set("k", fmt.Sprint(k))
	}
	req := httptest.NewRequest(http.MethodGet, "/search?"+v.Encode(), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// wireSearch round-trips the same query over the binary surface. The
// returned payload is copied out of the client's reused buffer so
// callers may hold several at once.
func wireSearch(t *testing.T, c *Client, q string, k int) *Response {
	t.Helper()
	resp, err := c.Query(0, byte(core.StrategyPartition), k, 0, tokenize.Query(q))
	if err != nil {
		t.Fatalf("wire query %q: %v", q, err)
	}
	cp := *resp
	cp.Payload = append([]byte(nil), resp.Payload...)
	return &cp
}

func diffDoc(t *testing.T, authors int, seed int64) *xmltree.Document {
	t.Helper()
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: authors, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// comparePair runs the full query mix against one HTTP handler and one
// wire client and requires byte-identical payloads. ks may include -1
// (HTTP k omitted, wire k=0) to pin default-k parity.
func comparePair(t *testing.T, h http.Handler, c *Client, queries []string, ks []int) {
	t.Helper()
	for _, q := range queries {
		for _, k := range ks {
			wireK := k
			if k < 0 {
				wireK = 0
			}
			code, want := httpSearch(t, h, q, k)
			if code != http.StatusOK {
				t.Fatalf("http %q k=%d: %d %s", q, k, code, want)
			}
			resp := wireSearch(t, c, q, wireK)
			if resp.Status != StatusOK {
				t.Fatalf("wire %q k=%d: status %d: %s", q, k, resp.Status, resp.Payload)
			}
			if !bytes.Equal(resp.Payload, []byte(want)) {
				t.Errorf("%q k=%d: wire payload diverges from HTTP body\nwire: %s\nhttp: %s",
					q, k, resp.Payload, want)
			}
		}
	}
}

// TestWireHTTPDifferential is the headline conformance run on plain
// engines: every k, including each surface's default.
func TestWireHTTPDifferential(t *testing.T) {
	doc := diffDoc(t, 120, 3)
	httpH := server.New(core.NewFromDocument(doc, nil), server.Config{})
	_, addr := startServer(t, core.NewFromDocument(doc, nil))
	c := dial(t, addr)
	comparePair(t, httpH, c, diffQueries, []int{-1, 1, 10})
}

// TestWireHTTPDifferentialDegraded pins degradation parity: with a
// one-posting budget every query degrades, and the degraded flag and
// "posting-budget" reason must serialize identically on both surfaces.
func TestWireHTTPDifferentialDegraded(t *testing.T) {
	doc := diffDoc(t, 80, 3)
	cfg := &core.Config{PostingBudget: 1}
	httpH := server.New(core.NewFromDocument(doc, cfg), server.Config{})
	_, addr := startServer(t, core.NewFromDocument(doc, cfg))
	c := dial(t, addr)

	sawReason := false
	for _, q := range diffQueries {
		_, want := httpSearch(t, httpH, q, 3)
		resp := wireSearch(t, c, q, 3)
		if !bytes.Equal(resp.Payload, []byte(want)) {
			t.Errorf("%q: degraded payload diverges\nwire: %s\nhttp: %s", q, resp.Payload, want)
		}
		sawReason = sawReason || strings.Contains(want, `"degraded_reason": "posting-budget"`)
	}
	if !sawReason {
		t.Error("budgeted corpus never produced a posting-budget degraded response; the parity check is vacuous")
	}
}

// TestWireHTTPDifferentialLiveUpdates feeds both surfaces' engines the
// same update batches — the HTTP engine through POST /update, the wire
// engine through Engine.Apply — and requires query parity afterwards.
// This pins the wire surface to the rebuild-equivalence guarantee the
// HTTP suite already enforces.
func TestWireHTTPDifferentialLiveUpdates(t *testing.T) {
	doc := diffDoc(t, 60, 11)
	httpEng := core.NewFromDocument(doc, nil)
	wireEng := core.NewFromDocument(doc, nil)
	httpH := server.New(httpEng, server.Config{})
	_, addr := startServer(t, wireEng)
	c := dial(t, addr)

	batches, err := datagen.Updates(doc, datagen.UpdatesConfig{Batches: 6, Ops: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		j, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(string(j)))
		rec := httptest.NewRecorder()
		httpH.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch %d: /update = %d %s", i, rec.Code, rec.Body.String())
		}
		if _, err := wireEng.Apply(b); err != nil {
			t.Fatalf("batch %d: wire-side Apply: %v", i, err)
		}
	}
	if h, w := httpEng.Epoch(), wireEng.Epoch(); h != w || h != uint64(len(batches)) {
		t.Fatalf("epochs diverged: http=%d wire=%d want %d", h, w, len(batches))
	}
	queries := append(append([]string(nil), diffQueries...), "refinement suggestion", "keyword databse onlin")
	comparePair(t, httpH, c, queries, []int{3})
}

// replicatedRouter writes a replicated shard directory and opens a
// router over it.
func replicatedRouter(t *testing.T, doc *xmltree.Document, shards, replicas int, opts shard.Options) *shard.Router {
	t.Helper()
	dir := t.TempDir()
	if _, err := shard.WriteReplicatedStores(doc, dir, shards, shard.ModeRange, replicas); err != nil {
		t.Fatal(err)
	}
	r, err := shard.Open(dir, &opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestWireHTTPDifferentialSharded runs the suite over replicated shard
// routers — the fan-out, merge, and snippet paths — one router per
// surface from the same on-disk layout.
func TestWireHTTPDifferentialSharded(t *testing.T) {
	doc := diffDoc(t, 90, 5)
	httpH := server.New(replicatedRouter(t, doc, 3, 2, shard.Options{}), server.Config{})
	_, addr := startServer(t, replicatedRouter(t, doc, 3, 2, shard.Options{}))
	c := dial(t, addr)
	comparePair(t, httpH, c, diffQueries, []int{3})
}

// TestWireHTTPDifferentialChaos arms a seeded fault injector on every
// replica of both routers and replays the mix. Individual responses may
// legitimately degrade shard-partial (each surface rolls its own faults),
// so parity is asserted only between non-degraded answers — the same
// rule scripts/wire_diff.sh applies — while every response must still be
// a well-formed OK frame.
func TestWireHTTPDifferentialChaos(t *testing.T) {
	doc := diffDoc(t, 60, 9)
	chaos, err := shard.ParseChaos("rate=0.15")
	if err != nil {
		t.Fatal(err)
	}
	opts := shard.Options{Chaos: chaos, Retries: 2}
	httpH := server.New(replicatedRouter(t, doc, 2, 2, opts), server.Config{})
	_, addr := startServer(t, replicatedRouter(t, doc, 2, 2, opts))
	c := dial(t, addr)

	compared, skipped := 0, 0
	for round := 0; round < 5; round++ {
		for _, q := range diffQueries {
			code, want := httpSearch(t, httpH, q, 3)
			if code != http.StatusOK {
				t.Fatalf("http %q under chaos: %d %s", q, code, want)
			}
			resp := wireSearch(t, c, q, 3)
			if resp.Status != StatusOK {
				t.Fatalf("wire %q under chaos: status %d: %s", q, resp.Status, resp.Payload)
			}
			if strings.Contains(want, `"degraded"`) || bytes.Contains(resp.Payload, []byte(`"degraded"`)) {
				skipped++
				continue
			}
			compared++
			if !bytes.Equal(resp.Payload, []byte(want)) {
				t.Errorf("%q under chaos: non-degraded payloads diverge\nwire: %s\nhttp: %s", q, resp.Payload, want)
			}
		}
	}
	t.Logf("chaos differential: %d compared, %d skipped as degraded", compared, skipped)
	if compared == 0 {
		t.Error("every chaos response degraded; the parity check is vacuous — lower the fault rate")
	}
}

// TestWireHTTPDifferentialErrors pins error-code parity: requests the
// HTTP handler rejects with 400 map to wire error frames carrying
// CodeBadRequest, on a connection that stays usable.
func TestWireHTTPDifferentialErrors(t *testing.T) {
	doc := diffDoc(t, 40, 3)
	httpH := server.New(core.NewFromDocument(doc, nil), server.Config{})
	_, addr := startServer(t, core.NewFromDocument(doc, nil))
	c := dial(t, addr)

	// Empty query: HTTP rejects missing q; the wire codec rejects a
	// zero-term request at decode time.
	if code, _ := httpSearch(t, httpH, "", 3); code != http.StatusBadRequest {
		t.Errorf("http empty q = %d, want 400", code)
	}
	if _, err := c.nc.Write(AppendRequest(nil, 0, 0, 3, 0, nil)); err != nil {
		t.Fatal(err)
	}
	c.inflight++
	resp, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError || resp.Code != CodeBadRequest {
		t.Errorf("wire empty query: status=%d code=%d, want error 400", resp.Status, resp.Code)
	}

	// Strategies other than partition: HTTP 400 for the retired names and
	// any other; the wire codec rejects every nonzero strategy byte the
	// same way.
	for _, strat := range []string{"sle", "stack", "bogus"} {
		rec := httptest.NewRecorder()
		httpH.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=database&strategy="+strat, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("http strategy=%s = %d, want 400", strat, rec.Code)
		}
	}
	for _, strat := range []byte{1, 2, 9} {
		if _, err := c.nc.Write(AppendRequest(nil, 0, strat, 3, 0, []string{"database"})); err != nil {
			t.Fatal(err)
		}
		c.inflight++
		if resp, err = c.Recv(); err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusError || resp.Code != CodeBadRequest {
			t.Errorf("wire strategy byte %d: status=%d code=%d, want error 400", strat, resp.Status, resp.Code)
		}
	}

	// Both surfaces remain healthy afterwards.
	if code, _ := httpSearch(t, httpH, "database", 3); code != http.StatusOK {
		t.Errorf("http unhealthy after rejects: %d", code)
	}
	if err := c.Ping(); err != nil {
		t.Errorf("wire connection unhealthy after rejects: %v", err)
	}
}
