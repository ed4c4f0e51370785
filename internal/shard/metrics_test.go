package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/obs"
	"xrefine/internal/refine"
	"xrefine/internal/server"
	"xrefine/internal/storage"
)

// engineSamples scrapes the router's registry and returns each sample's
// value keyed by name plus its label set.
func engineSamples(t *testing.T, r *Router) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, s := range exp.Samples {
		key := s.Name
		if reason, ok := s.Labels["reason"]; ok {
			key += fmt.Sprintf("{reason=%q}", reason)
		}
		out[key] = s.Value
	}
	return out
}

// healthCounters reads the query counters /healthz serves for r.
func healthCounters(t *testing.T, r *Router) (queries, refined, degraded uint64) {
	t.Helper()
	rec := httptest.NewRecorder()
	server.New(r, server.Config{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h struct {
		Queries  uint64 `json:"queries"`
		Refined  uint64 `json:"refined"`
		Degraded uint64 `json:"degraded"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	return h.Queries, h.Refined, h.Degraded
}

// TestRouterMetricsMatchHealthz: a router answers every query through its
// meta engine, so the engine families on /metrics count router queries
// exactly as /healthz (Router.Stats) does, every query leaves one query
// flight event, and a shard-partial degradation lands in the engine's
// degraded family.
func TestRouterMetricsMatchHealthz(t *testing.T) {
	doc := corpusDoc(t, 32, 5)
	terms := []string{"databse", "quary"}
	const n = 5
	for _, mode := range []string{ModeRange, ModeHash} {
		t.Run(mode, func(t *testing.T) {
			r := memRouter(t, doc, 2, mode, nil, nil)
			for i := 0; i < n; i++ {
				ri := obs.NewReqInfo()
				resp, err := r.QueryTermsCtx(obs.WithReqInfo(context.Background(), ri), terms, core.StrategyPartition, 3, 2)
				if err != nil {
					t.Fatal(err)
				}
				if !resp.NeedRefine {
					t.Fatal("misspelled query did not need refinement; the refined counter asserts nothing")
				}
				evs := r.flight.Events(obs.EventFilter{Trace: ri.Trace, Kind: obs.EvQuery})
				if len(evs) != 1 {
					t.Errorf("query %d: %d query flight events, want 1", i, len(evs))
				}
			}
			m := engineSamples(t, r)
			for _, name := range []string{"xrefine_engine_queries_total", "xrefine_engine_query_seconds_count", "xrefine_engine_refined_total"} {
				if m[name] != n {
					t.Errorf("%s = %v, want %d", name, m[name], n)
				}
			}
			if st := r.Stats(); st.Queries != n || st.Refined != n {
				t.Errorf("Router.Stats() queries=%d refined=%d, want %d", st.Queries, st.Refined, n)
			}
			if q, ref, _ := healthCounters(t, r); q != n || ref != n {
				t.Errorf("/healthz queries=%d refined=%d, want %d", q, ref, n)
			}

			// A fresh router whose shard 1 faults on its first list load
			// (the setup of TestShardPartialDegrade).
			faults := []*storage.Faults{nil, {}}
			fr := memRouter(t, doc, 2, mode, nil, faults)
			fr.groups[1].reps[0].store.DropCaches()
			faults[1].FailReads(1)
			resp, err := fr.QueryTermsCtx(context.Background(), []string{"database", "query"}, core.StrategyPartition, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			if resp.DegradedReason != refine.DegradedShardPartial {
				t.Fatalf("degraded=%v reason=%q, want shard-partial", resp.Degraded, resp.DegradedReason)
			}
			if got := engineSamples(t, fr)[`xrefine_engine_degraded_total{reason="shard-partial"}`]; got != 1 {
				t.Errorf(`xrefine_engine_degraded_total{reason="shard-partial"} = %v, want 1`, got)
			}
			if _, _, deg := healthCounters(t, fr); deg != 1 {
				t.Errorf("/healthz degraded = %d, want 1", deg)
			}
		})
	}
}
