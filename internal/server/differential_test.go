package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
)

// TestSearchByteIdenticalAcrossConfigs is the differential guarantee of
// the hardening work: with no deadline, budget, or fault configured, the
// /search body must be byte-for-byte what the unhardened server returns,
// also on a server whose limits exist but are too generous to fire. The
// degraded fields, the context plumbing, and the admission gate must be
// invisible until they trigger.
func TestSearchByteIdenticalAcrossConfigs(t *testing.T) {
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Separate engines per server so caches and counters cannot leak
	// state across the comparison.
	bare := New(core.NewFromDocument(doc, nil), Config{})
	hardened := New(
		core.NewFromDocument(doc, &core.Config{
			PostingBudget: 1 << 40,
		}),
		Config{Timeout: time.Hour, MaxInFlight: 128},
	)
	// A slowlog threshold arms a trace on every query: the span plumbing
	// through refine/slca/index must not perturb the response bytes.
	traced := New(core.NewFromDocument(doc, nil),
		Config{SlowLogThreshold: time.Nanosecond})

	queries := []string{
		"database query",
		"databse quary",     // misspellings force refinement
		"keyword serch xml", // partial mismatch
		"twig matching pattern",
	}
	fetch := func(t *testing.T, s *Server, q string) string {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/search?"+url.Values{"q": {q}}.Encode(), nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", q, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	for _, q := range queries {
		ref := fetch(t, bare, q)
		if got := fetch(t, bare, q); got != ref {
			t.Errorf("bare server: %q nondeterministic", q)
		}
		if got := fetch(t, hardened, q); got != ref {
			t.Errorf("hardened server: %q diverged from bare", q)
		}
		if got := fetch(t, traced, q); got != ref {
			t.Errorf("traced server: %q diverged from bare", q)
		}
	}

	// Rebuild equivalence (the live-update guarantee): a server that
	// absorbed K random update batches through POST /update must answer
	// every query byte-for-byte like a server whose index was rebuilt from
	// scratch on the final document. Incremental list deltas, stat-table
	// maintenance, epoch swaps and the generation-keyed cache must leave
	// no fingerprint.
	t.Run("rebuild-equivalence", func(t *testing.T) {
		updDoc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 60, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		incEng := core.NewFromDocument(updDoc, nil)
		incremental := New(incEng, Config{})
		batches, err := datagen.Updates(updDoc, datagen.UpdatesConfig{Batches: 6, Ops: 4, Seed: 11})
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
			incremental.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("batch %d: /update = %d %s", i, rec.Code, rec.Body.String())
			}
		}
		if got, want := incEng.Epoch(), uint64(len(batches)); got != want {
			t.Fatalf("epoch after %d batches = %d", want, got)
		}
		rebuilt := New(core.NewFromDocument(incEng.Document(), nil), Config{})

		// Queries mix original corpus vocabulary, inserted-fragment
		// vocabulary, and misspellings that force refinement through the
		// maintained frequency and co-occurrence tables.
		updQueries := append(queries, "refinement suggestion", "keyword databse onlin")
		for _, q := range updQueries {
			ref := fetch(t, rebuilt, q)
			if got := fetch(t, incremental, q); got != ref {
				t.Errorf("incremental server: %q diverged from rebuilt index\nincremental: %s\nrebuilt:     %s",
					q, got, ref)
			}
			if got := fetch(t, rebuilt, q); got != ref {
				t.Errorf("rebuilt server: %q nondeterministic", q)
			}
		}
	})
}
