package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/obs"
	"xrefine/internal/xmltree"
)

// flightServer builds a server with the given edge config over a fresh
// in-memory engine (its own registry, so flight-recorder state does not
// bleed between tests).
func flightServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	var b strings.Builder
	b.WriteString("<bib>")
	for a := 0; a < 20; a++ {
		b.WriteString("<author><publications>")
		for p := 0; p < 3; p++ {
			fmt.Fprintf(&b, "<paper><title>database systems %d</title><year>%d</year></paper>", p, 2000+p)
		}
		b.WriteString("</publications></author>")
	}
	b.WriteString("</bib>")
	doc, err := xmltree.ParseString(b.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(core.NewFromDocument(doc, nil), cfg)
}

// TestDebugEventsLifecycle: one query must leave an admit → query →
// finish event chain in the flight recorder, all stamped with the same
// trace ID, and the /debug/events filters must select on it.
func TestDebugEventsLifecycle(t *testing.T) {
	s := flightServer(t, Config{TraceSampleEvery: 1})
	if rec, _ := get(t, s, "/search?q=databse"); rec.Code != http.StatusOK {
		t.Fatalf("search = %d", rec.Code)
	}
	rec, body := get(t, s, "/debug/events")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/events = %d: %s", rec.Code, rec.Body.String())
	}
	events := body["events"].([]any)
	kinds := make(map[string]string) // kind -> trace_id
	for _, e := range events {
		ev := e.(map[string]any)
		kinds[ev["kind"].(string)] = ev["trace_id"].(string)
	}
	for _, k := range []string{"admit", "query", "finish"} {
		if kinds[k] == "" {
			t.Fatalf("missing %q event; have %v", k, kinds)
		}
	}
	if kinds["admit"] != kinds["query"] || kinds["query"] != kinds["finish"] {
		t.Errorf("trace IDs differ across the lifecycle: %v", kinds)
	}
	id := kinds["admit"]

	// Filter by trace: every event carries the requested ID.
	rec, body = get(t, s, "/debug/events?trace_id="+id)
	if rec.Code != http.StatusOK {
		t.Fatalf("filtered events = %d", rec.Code)
	}
	filtered := body["events"].([]any)
	if len(filtered) < 3 {
		t.Fatalf("trace filter returned %d events, want >= 3", len(filtered))
	}
	for _, e := range filtered {
		if got := e.(map[string]any)["trace_id"].(string); got != id {
			t.Errorf("trace filter leaked event with id %s", got)
		}
	}

	// Filter by kind.
	rec, body = get(t, s, "/debug/events?kind=admit")
	if rec.Code != http.StatusOK {
		t.Fatalf("kind filter = %d", rec.Code)
	}
	for _, e := range body["events"].([]any) {
		if got := e.(map[string]any)["kind"].(string); got != "admit" {
			t.Errorf("kind filter leaked %q event", got)
		}
	}

	// Bad filter values are 400s.
	if rec, _ := get(t, s, "/debug/events?trace_id=zzz"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad trace_id = %d, want 400", rec.Code)
	}
	if rec, _ := get(t, s, "/debug/events?kind=nope"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad kind = %d, want 400", rec.Code)
	}
}

// TestTraceResolution: a sampled query's trace ID — taken from the event
// ring — must resolve at /debug/trace/<id> to the retained record with
// its span tree, and the span tree's events must exist in /debug/events.
func TestTraceResolution(t *testing.T) {
	s := flightServer(t, Config{TraceSampleEvery: 1})
	if rec, _ := get(t, s, "/search?q=databse"); rec.Code != http.StatusOK {
		t.Fatalf("search = %d", rec.Code)
	}
	_, body := get(t, s, "/debug/events?kind=admit")
	events := body["events"].([]any)
	if len(events) == 0 {
		t.Fatal("no admit events")
	}
	id := events[0].(map[string]any)["trace_id"].(string)

	rec, body := get(t, s, "/debug/trace/"+id)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace/%s = %d: %s", id, rec.Code, rec.Body.String())
	}
	if body["trace_id"] != id {
		t.Errorf("resolved trace_id = %v, want %s", body["trace_id"], id)
	}
	if body["query"] != "databse" {
		t.Errorf("retained query = %v", body["query"])
	}
	if body["trace"] == nil {
		t.Error("retained record has no span tree")
	}
	// Single-engine backend: no replica fan-out attribution.
	if body["shard"].(float64) != -1 || body["replica"].(float64) != -1 {
		t.Errorf("single-engine attribution = shard %v replica %v, want -1 -1", body["shard"], body["replica"])
	}

	// Unknown and malformed IDs.
	if rec, _ := get(t, s, "/debug/trace/00000000000000ff"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", rec.Code)
	}
	if rec, _ := get(t, s, "/debug/trace/zzz"); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed trace id = %d, want 400", rec.Code)
	}
}

// TestOpenMetricsExemplarResolves is the acceptance loop: scrape the
// OpenMetrics exposition, pull a trace ID off a latency-histogram
// exemplar, and resolve it at /debug/trace/<id>. The default exposition
// must carry no exemplars.
func TestOpenMetricsExemplarResolves(t *testing.T) {
	s := flightServer(t, Config{TraceSampleEvery: 1})
	for i := 0; i < 3; i++ {
		if rec, _ := get(t, s, "/search?q=databse"); rec.Code != http.StatusOK {
			t.Fatalf("search = %d", rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics?format=openmetrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics openmetrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("Content-Type = %q", ct)
	}
	payload := rec.Body.String()
	if !strings.HasSuffix(payload, "# EOF\n") {
		t.Error("OpenMetrics payload missing # EOF")
	}
	exp, err := obs.ParsePrometheus(strings.NewReader(payload))
	if err != nil {
		t.Fatalf("malformed OpenMetrics exposition: %v", err)
	}
	if err := exp.CheckHistograms(); err != nil {
		t.Fatalf("CheckHistograms: %v", err)
	}
	var ids []string
	for _, sm := range exp.Samples {
		if sm.Exemplar != nil {
			if tid := sm.Exemplar.Labels["trace_id"]; tid != "" {
				ids = append(ids, tid)
			}
		}
	}
	if len(ids) == 0 {
		t.Fatalf("no exemplars in OpenMetrics scrape:\n%s", payload)
	}
	for _, id := range ids {
		rec, _ := get(t, s, "/debug/trace/"+id)
		if rec.Code != http.StatusOK {
			t.Errorf("exemplar trace %s does not resolve: %d", id, rec.Code)
		}
	}

	// Default exposition: no exemplars, unchanged content type.
	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if strings.Contains(rec.Body.String(), "trace_id") {
		t.Error("default exposition leaked exemplars")
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("default Content-Type = %q", ct)
	}
}

// TestHealthzSLOAndBuildInfo: /healthz must carry the SLO burn-rate
// report and uptime; /metrics must expose build_info (with go_version and
// index_format labels), uptime, and the four burn-rate gauges.
func TestHealthzSLOAndBuildInfo(t *testing.T) {
	s := flightServer(t, Config{})
	if rec, _ := get(t, s, "/search?q=databse"); rec.Code != http.StatusOK {
		t.Fatal("search failed")
	}
	_, body := get(t, s, "/healthz")
	slo, ok := body["slo"].(map[string]any)
	if !ok {
		t.Fatalf("healthz slo = %T", body["slo"])
	}
	if slo["availability_objective"].(float64) != 0.999 {
		t.Errorf("availability objective = %v", slo["availability_objective"])
	}
	wins := slo["windows"].([]any)
	if len(wins) != 2 {
		t.Fatalf("slo windows = %d, want 2", len(wins))
	}
	w5 := wins[0].(map[string]any)
	if w5["window"] != "5m" || w5["requests"].(float64) < 1 {
		t.Errorf("5m window = %v", w5)
	}
	if body["uptime_seconds"].(float64) < 0 {
		t.Error("negative uptime")
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	metrics := rec.Body.String()
	for _, want := range []string{
		`xrefine_build_info{go_version="go`,
		`index_format="2"`,
		"xrefine_uptime_seconds ",
		"xrefine_slo_availability_burn_5m ",
		"xrefine_slo_availability_burn_1h ",
		"xrefine_slo_latency_burn_5m ",
		"xrefine_slo_latency_burn_1h ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSLOBurnCountsFailures: shed requests (503) must burn the
// availability budget.
func TestSLOBurnCountsFailures(t *testing.T) {
	s := flightServer(t, Config{MaxInFlight: 1})
	// Occupy the only gate slot directly (so the holder does not itself
	// feed the SLO), then shed a real /search through the full route stack.
	s.pipe.gate <- struct{}{}
	defer func() { <-s.pipe.gate }()
	rec, _ := get(t, s, "/search?q=databse")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("expected shed, got %d", rec.Code)
	}
	rep := s.pipe.slo.Report(time.Now())
	if rep.Windows[0].BadAvailability < 1 {
		t.Errorf("shed request did not burn availability: %+v", rep.Windows[0])
	}
	if rep.Windows[0].Requests < 1 {
		t.Errorf("shed request not counted: %+v", rep.Windows[0])
	}
}

// TestSlowlogAttribution: slowlog entries must carry the trace ID that
// resolves in the trace store.
func TestSlowlogAttribution(t *testing.T) {
	s := flightServer(t, Config{SlowLogThreshold: time.Nanosecond})
	if rec, _ := get(t, s, "/search?q=databse"); rec.Code != http.StatusOK {
		t.Fatal("search failed")
	}
	_, body := get(t, s, "/debug/slowlog")
	entries := body["entries"].([]any)
	if len(entries) == 0 {
		t.Fatal("no slowlog entries at a 1ns threshold")
	}
	e := entries[0].(map[string]any)
	id, _ := e["trace_id"].(string)
	if id == "" {
		t.Fatal("slowlog entry has no trace_id")
	}
	if e["shard"].(float64) != -1 || e["replica"].(float64) != -1 {
		t.Errorf("single-engine slowlog attribution = shard %v replica %v", e["shard"], e["replica"])
	}
	// The slowlog arms tracing for every query, so the trace must resolve.
	if rec, _ := get(t, s, "/debug/trace/"+id); rec.Code != http.StatusOK {
		t.Errorf("slowlog trace %s does not resolve: %d", id, rec.Code)
	}
}

// TestEventsDisabledWithoutMetrics: with metrics off there is no event
// ring; the endpoint must say so rather than panic.
func TestEventsDisabledWithoutMetrics(t *testing.T) {
	var b strings.Builder
	b.WriteString("<bib><paper><title>database</title></paper></bib>")
	doc, err := xmltree.ParseString(b.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(core.NewFromDocument(doc, &core.Config{DisableMetrics: true}), Config{})
	req := httptest.NewRequest(http.MethodGet, "/debug/events", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("/debug/events without metrics = %d, want 404", rec.Code)
	}
}
