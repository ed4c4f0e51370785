package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/obs"
)

// TestMetricsEndpoint: /metrics serves a well-formed Prometheus text
// exposition carrying both the engine families and the HTTP-layer
// families, under the standard content type.
func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	if rec, _ := get(t, s, "/search?q=databse"); rec.Code != http.StatusOK {
		t.Fatalf("search = %d", rec.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	exp, err := obs.ParsePrometheus(rec.Body)
	if err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}
	have := make(map[string]bool)
	for _, f := range exp.Families() {
		have[f] = true
	}
	for _, want := range []string{
		"xrefine_engine_queries_total",
		"xrefine_engine_query_seconds",
		"xrefine_refine_partitions_total",
		"xrefine_slca_calls_total",
		"xrefine_index_list_loads_total",
		"xrefine_http_requests_total",
		"xrefine_http_request_seconds",
		"xrefine_http_inflight",
	} {
		if !have[want] {
			t.Errorf("missing family %s", want)
		}
	}
	// The search above must have been counted with its route and code.
	for _, sm := range exp.Samples {
		if sm.Name == "xrefine_http_requests_total" &&
			sm.Labels["route"] == "/search" && sm.Labels["code"] == "200" {
			if sm.Value < 1 {
				t.Errorf("requests_total{/search,200} = %v", sm.Value)
			}
			return
		}
	}
	t.Error("no xrefine_http_requests_total{route=/search,code=200} sample")
}

// TestMetricsNotFoundWhenDisabled: an engine built with DisableMetrics
// leaves the server without a registry; /metrics must 404, not panic.
func TestMetricsNotFoundWhenDisabled(t *testing.T) {
	s := New(testEngine(t, &core.Config{DisableMetrics: true}), Config{})
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("/metrics with DisableMetrics = %d, want 404", rec.Code)
	}
}

// explainTree pulls the explain span tree out of a decoded /search body.
func explainTree(t *testing.T, body map[string]any) map[string]any {
	t.Helper()
	tree, ok := body["explain"].(map[string]any)
	if !ok {
		t.Fatalf("no explain object in body: %v", body)
	}
	return tree
}

// TestExplainSpanTree: explain=1 attaches the span tree to the /search
// response; the same query without the flag must not leak the key. On a
// monolith the stages are disjoint, so child durations must sum to no more
// than the root duration.
func TestExplainSpanTree(t *testing.T) {
	s := New(testEngine(t, nil), Config{})
	rec, body := get(t, s, "/search?q=databse&explain=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("search = %d", rec.Code)
	}
	tree := explainTree(t, body)
	if tree["name"] != "query" {
		t.Errorf("root span = %v, want query", tree["name"])
	}
	root := tree["duration_ns"].(float64)
	children, _ := tree["children"].([]any)
	if len(children) == 0 {
		t.Fatal("explain tree has no children")
	}
	var sum float64
	names := make(map[string]bool)
	for _, c := range children {
		cm := c.(map[string]any)
		sum += cm["duration_ns"].(float64)
		names[cm["name"].(string)] = true
	}
	if sum > root {
		t.Errorf("child durations sum %v exceeds root %v", sum, root)
	}
	for _, want := range []string{"tokenize", "prepare", "rank"} {
		if !names[want] {
			t.Errorf("explain tree missing %q span; have %v", want, names)
		}
	}
	found := false
	for n := range names {
		if strings.HasPrefix(n, "refine:") {
			found = true
		}
	}
	if !found {
		t.Errorf("explain tree missing refine:* span; have %v", names)
	}

	rec, _ = get(t, s, "/search?q=databse")
	if strings.Contains(rec.Body.String(), "explain") {
		t.Error("no-explain response leaked an explain key")
	}
}

// TestOpsSurfacesBypassStuckQuery: with MaxInFlight=1 and the only slot
// held as a stuck request would hold it, the ops surfaces must still
// answer — they sit outside the pipeline, gate and deadline both.
func TestOpsSurfacesBypassStuckQuery(t *testing.T) {
	s := New(testEngine(t, nil), Config{
		MaxInFlight:      1,
		Timeout:          50 * time.Millisecond,
		SlowLogThreshold: time.Hour, // slowlog route enabled, ring stays empty
	})
	s.pipe.gate <- struct{}{}
	defer func() { <-s.pipe.gate }()

	// Poll /healthz until well past the request timeout, asserting on
	// every probe: the bypass must be structural — holding for the whole
	// window, not just after one lucky fixed-length sleep.
	deadline := time.Now().Add(3 * 50 * time.Millisecond)
	for probes := 0; time.Now().Before(deadline) || probes == 0; probes++ {
		if rec, body := get(t, s, "/healthz"); rec.Code != http.StatusOK || body["status"] != "ok" {
			t.Fatalf("/healthz under saturation (probe %d) = %d %v", probes, rec.Code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("/metrics under saturation = %d", rec.Code)
	}
	if _, err := obs.ParsePrometheus(rec.Body); err != nil {
		t.Errorf("/metrics under saturation malformed: %v", err)
	}
	if rec, _ := get(t, s, "/debug/slowlog"); rec.Code != http.StatusOK {
		t.Errorf("/debug/slowlog under saturation = %d", rec.Code)
	}
	// Sanity: the query path itself is saturated right now.
	if rec, _ := get(t, s, "/search?q=database"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("query under saturation = %d, want 503", rec.Code)
	}
}

// TestSlowlogRing: with a zero-ish threshold every query lands in the
// ring, newest first, each entry carrying its span tree.
func TestSlowlogRing(t *testing.T) {
	s := New(testEngine(t, nil), Config{SlowLogThreshold: time.Nanosecond})
	for _, q := range []string{"database", "keyword"} {
		if rec, _ := get(t, s, "/search?q="+q); rec.Code != http.StatusOK {
			t.Fatalf("search %s = %d", q, rec.Code)
		}
	}
	rec, body := get(t, s, "/debug/slowlog")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/slowlog = %d", rec.Code)
	}
	entries, _ := body["entries"].([]any)
	if len(entries) != 2 {
		t.Fatalf("slowlog entries = %d, want 2", len(entries))
	}
	newest := entries[0].(map[string]any)
	if newest["query"] != "keyword" {
		t.Errorf("newest entry query = %v, want keyword (newest first)", newest["query"])
	}
	trace, ok := newest["trace"].(map[string]any)
	if !ok || trace["name"] != "query" {
		t.Errorf("slowlog entry missing span tree: %v", newest)
	}
}

// TestSlowlogKeepsSampling: an armed slowlog traces every query but
// retains only the slow ones, so fast queries do not evict the sampled
// trace history.
func TestSlowlogKeepsSampling(t *testing.T) {
	s := New(testEngine(t, nil), Config{SlowLogThreshold: time.Hour, TraceSampleEvery: -1})
	for i := 0; i < 5; i++ {
		if rec, _ := get(t, s, "/search?q=databse"); rec.Code != http.StatusOK {
			t.Fatalf("search = %d", rec.Code)
		}
	}
	if n := s.pipe.traces.Len(); n != 0 {
		t.Errorf("trace store holds %d fast unsampled queries, want 0", n)
	}
}

// TestSlowlogNotFoundWhenDisabled: without a threshold the route 404s.
func TestSlowlogNotFoundWhenDisabled(t *testing.T) {
	s := testServer(t)
	if rec, _ := get(t, s, "/debug/slowlog"); rec.Code != http.StatusNotFound {
		t.Errorf("/debug/slowlog without threshold = %d, want 404", rec.Code)
	}
}

// TestHealthzMetricsSnapshot: /healthz keeps its original top-level keys
// and now also embeds the registry snapshot under "metrics".
func TestHealthzMetricsSnapshot(t *testing.T) {
	s := testServer(t)
	if rec, _ := get(t, s, "/search?q=databse"); rec.Code != http.StatusOK {
		t.Fatal("search failed")
	}
	_, body := get(t, s, "/healthz")
	for _, k := range []string{"status", "queries", "refined", "shed", "panics", "degraded"} {
		if _, ok := body[k]; !ok {
			t.Errorf("healthz missing legacy key %q", k)
		}
	}
	m, ok := body["metrics"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing metrics snapshot: %v", body)
	}
	if _, ok := m["xrefine_engine_queries_total"]; !ok {
		t.Errorf("metrics snapshot missing engine counter: %v", m)
	}
}

// TestPprofGated: the pprof mux is mounted only on request.
func TestPprofGated(t *testing.T) {
	plain := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil)
	rec := httptest.NewRecorder()
	plain.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("pprof without -pprof = %d, want 404", rec.Code)
	}

	on := New(testEngine(t, nil), Config{EnablePprof: true})
	rec = httptest.NewRecorder()
	on.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof cmdline = %d, want 200", rec.Code)
	}
}
