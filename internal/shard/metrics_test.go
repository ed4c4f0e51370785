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
	"xrefine/internal/mutate"
	"xrefine/internal/obs"
	"xrefine/internal/refine"
	"xrefine/internal/server"
	"xrefine/internal/storage"
)

// engineSamples scrapes the router's registry and returns each sample's
// value keyed by name plus its reason label, summed over any other labels.
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
		out[key] += s.Value
	}
	return out
}

// healthCounters are the counters and the epoch /healthz serves.
type healthCounters struct {
	Queries        uint64 `json:"queries"`
	Refined        uint64 `json:"refined"`
	Degraded       uint64 `json:"degraded"`
	AppliedBatches uint64 `json:"applied_batches"`
	AppliedOps     uint64 `json:"applied_ops"`
	Epoch          uint64 `json:"epoch"`
}

// healthz reads the counters /healthz serves for r.
func healthz(t *testing.T, r *Router) healthCounters {
	t.Helper()
	rec := httptest.NewRecorder()
	server.New(r, server.Config{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h healthCounters
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestRouterMetricsMatchHealthz: a router answers every query through its
// meta engine, so the engine families on /metrics count router queries
// exactly as /healthz does, every query leaves one query flight event, and
// a shard-partial degradation lands in the engine's degraded family. A
// live router counts each committed batch once, and its epoch family is
// the /healthz epoch.
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
			if h := healthz(t, r); h.Queries != n || h.Refined != n {
				t.Errorf("/healthz queries=%d refined=%d, want %d", h.Queries, h.Refined, n)
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
			if h := healthz(t, fr); h.Degraded != 1 {
				t.Errorf("/healthz degraded = %d, want 1", h.Degraded)
			}
		})
	}

	t.Run("live", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := WriteStores(doc, dir, 3, ModeRange); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, &Options{Live: true})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		// A reader races the commits: every republished meta epoch it sees
		// is complete, and the router's epoch never moves backwards.
		stop, readerDone := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(readerDone)
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.QueryTermsCtx(context.Background(), terms, core.StrategyPartition, 3, 2); err != nil {
					t.Error(err)
					return
				}
				e := r.UpdateStats().Epoch
				if e < last {
					t.Errorf("router epoch went back from %d to %d", last, e)
				}
				last = e
			}
		}()
		// N single-op batches spread over every shard.
		const batches = 6
		parts := doc.Partitions()
		for i := 0; i < batches; i++ {
			op := mutate.Op{Kind: mutate.OpInsert, Parent: parts[i*len(parts)/batches].ID,
				XML: "<paper><title>counted once</title></paper>"}
			if _, err := r.Apply(&mutate.Batch{Ops: []mutate.Op{op}}); err != nil {
				t.Errorf("batch %d: %v", i, err)
				break
			}
		}
		close(stop)
		<-readerDone
		h, m := healthz(t, r), engineSamples(t, r)
		for _, c := range []struct {
			key, family string
			health      uint64
		}{
			{"applied_batches", "xrefine_mutate_applied_batches_total", h.AppliedBatches},
			{"applied_ops", "xrefine_mutate_applied_ops_total", h.AppliedOps},
			{"epoch", "xrefine_mutate_epoch", h.Epoch},
		} {
			if c.health != batches || m[c.family] != batches {
				t.Errorf("/healthz %s = %d, /metrics %s = %v, want both %d",
					c.key, c.health, c.family, m[c.family], batches)
			}
		}
	})
}
