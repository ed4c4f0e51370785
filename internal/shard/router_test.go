package shard

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/kvstore"
	"xrefine/internal/mutate"
	"xrefine/internal/obs"
	"xrefine/internal/refine"
	"xrefine/internal/server"
	"xrefine/internal/storage"
	"xrefine/internal/xmltree"
)

// The tests here hold a router's own behavior: it degrades (never lies)
// when a shard fails or a budget expires, traces its fan-out, and splits
// cross-shard batches. That a router answers every query byte-for-byte
// like the monolith, across shard counts, split modes and live updates,
// is a row of wire.TestConformance.

func corpusDoc(t *testing.T, authors int, seed int64) *xmltree.Document {
	t.Helper()
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: authors, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// memRouter splits doc across n in-memory shard stores and routers them.
// faults, when non-nil, must have one entry per shard; each store is
// built with that shard's fault injector (disarmed until the test arms it).
func memRouter(t *testing.T, doc *xmltree.Document, n int, mode string, cfg *core.Config, faults []*storage.Faults) *Router {
	t.Helper()
	subs, err := SplitDocument(doc, n, mode)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]storage.Backend, n)
	for i, sub := range subs {
		var f *storage.Faults
		if faults != nil {
			f = faults[i]
		}
		stores[i] = kvstore.NewMemWithFaults(f)
		eng := core.NewFromDocument(sub, &core.Config{DisableMetrics: true})
		if err := eng.SaveIndexWithDocument(stores[i]); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewFromStores(stores, &Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.Close()
		for _, s := range stores {
			s.Close()
		}
	})
	return r
}

func fetchSearch(t *testing.T, h http.Handler, q string, k int) string {
	t.Helper()
	v := url.Values{"q": {q}, "k": {fmt.Sprint(k)}}
	req := httptest.NewRequest(http.MethodGet, "/search?"+v.Encode(), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: %d %s", q, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

var diffQueries = []string{
	"database query",
	"databse quary",     // misspellings force refinement
	"keyword serch xml", // partial mismatch
	"twig matching pattern",
}

// TestShardPartialDegrade arms a read fault on one shard's store
// and requires the query to succeed on the surviving shards, tagged
// degraded:"shard-partial" — never an error, never a silently-complete
// answer.
func TestShardPartialDegrade(t *testing.T) {
	doc := corpusDoc(t, 32, 5)
	faults := []*storage.Faults{nil, {}}
	subs, err := SplitDocument(doc, 2, ModeRange)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]storage.Backend, 2)
	for i, sub := range subs {
		stores[i] = kvstore.NewMemWithFaults(faults[i])
		defer stores[i].Close()
		eng := core.NewFromDocument(sub, &core.Config{DisableMetrics: true})
		if err := eng.SaveIndexWithDocument(stores[i]); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewFromStores(stores, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Armed after open: the construction-time loads (registry, document,
	// doc meta) must succeed. Dropping the page cache forces shard 1's
	// first lazy posting-list load back to the (now faulted) pager.
	stores[1].DropCaches()
	faults[1].FailReads(1)
	resp, err := r.QueryTermsCtx(nil, []string{"database", "query"}, core.StrategyPartition, 3, 2)
	if err != nil {
		t.Fatalf("query with one faulted shard: %v", err)
	}
	if !resp.Degraded || resp.DegradedReason != refine.DegradedShardPartial {
		t.Fatalf("degraded=%v reason=%q, want shard-partial", resp.Degraded, resp.DegradedReason)
	}
	if faults[1].Injected() == 0 {
		t.Fatal("fault never fired; the test asserted nothing")
	}
	if got := r.m.partial.Value(); got != 1 {
		t.Errorf("xrefine_shard_partial_total = %d, want 1", got)
	}
	if got := obs.SnapshotTotal(r.mreg.Snapshot(), "xrefine_shard_scan_errors_total"); got != 1 {
		t.Errorf("xrefine_shard_scan_errors_total = %d, want 1", got)
	}

	// Healing the store heals the router: the same query now completes
	// clean — the failed scan left no poisoned list or merge state behind.
	faults[1].Clear()
	resp2, err := r.QueryTermsCtx(nil, []string{"database", "query"}, core.StrategyPartition, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Degraded {
		t.Errorf("recovered query still degraded: %q", resp2.DegradedReason)
	}
}

// TestShardBudgetDegrade checks budget plumbing across the fan-out: a
// posting budget or deadline shared by every shard scan degrades the
// response with the budget's reason, and the response stays well-formed.
func TestShardBudgetDegrade(t *testing.T) {
	doc := corpusDoc(t, 48, 7)
	t.Run("posting-budget", func(t *testing.T) {
		r := memRouter(t, doc, 4, ModeRange, &core.Config{PostingBudget: 1}, nil)
		resp, err := r.QueryTermsCtx(nil, []string{"databse", "quary"}, core.StrategyPartition, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Degraded || resp.DegradedReason != refine.DegradedPostings {
			t.Fatalf("degraded=%v reason=%q, want posting-budget", resp.Degraded, resp.DegradedReason)
		}
	})
	t.Run("no-budget-clean", func(t *testing.T) {
		r := memRouter(t, doc, 4, ModeRange, &core.Config{PostingBudget: 1 << 40}, nil)
		resp, err := r.QueryTermsCtx(nil, []string{"databse", "quary"}, core.StrategyPartition, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Degraded {
			t.Fatalf("unconstrained query degraded: %q", resp.DegradedReason)
		}
	})
}

// TestShardExplainSpans checks the trace taxonomy of a scatter-gather
// query: per-shard spans under the refine span, plus a merge span.
func TestShardExplainSpans(t *testing.T) {
	doc := corpusDoc(t, 24, 3)
	r := memRouter(t, doc, 2, ModeRange, nil, nil)
	srv := server.New(r, server.Config{})
	req := httptest.NewRequest(http.MethodGet, "/search?q=database+query&explain=1", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	for _, want := range []string{`"refine:partition"`, `"shard-0"`, `"shard-1"`, `"merge"`, `"rank"`, `"load-lists"`} {
		if !strings.Contains(body, want) {
			t.Errorf("explain output missing %s span:\n%s", want, body)
		}
	}
}

// TestSplitBatch checks the client-side remedy for cross-shard batches:
// Apply rejects them whole, SplitBatch groups them per shard, and the
// groups commit.
func TestSplitBatch(t *testing.T) {
	doc := corpusDoc(t, 24, 9)
	dir := t.TempDir()
	if _, err := WriteStores(doc, dir, 2, ModeRange); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, &Options{Live: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	parts := doc.Partitions()
	first, last := parts[0], parts[len(parts)-1]
	frag := "<paper><title>split batch probe</title></paper>"
	cross := &mutate.Batch{Ops: []mutate.Op{
		{Kind: mutate.OpInsert, Parent: first.ID, XML: frag},
		{Kind: mutate.OpInsert, Parent: last.ID, XML: frag},
	}}
	if _, err := r.Apply(cross); err == nil {
		t.Fatal("cross-shard batch accepted; want rejection")
	}
	groups, err := r.SplitBatch(cross)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("SplitBatch groups = %d, want 2", len(groups))
	}
	for shard, g := range groups {
		if _, err := r.Apply(g); err != nil {
			t.Fatalf("apply split group on shard %d: %v", shard, err)
		}
	}
	if got := r.UpdateStats().Epoch; got != 2 {
		t.Errorf("epoch sum after split commits = %d, want 2", got)
	}
}
