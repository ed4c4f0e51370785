package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
)

// TestHTTPAllocOverhead is the HTTP twin of wire's TestWireAllocOverhead:
// the same corpus, query and engines, with the whole handler path —
// route, pipeline, search, encode, release, write — measured against a
// direct Engine.QueryTermsCtx call whose response is released the same
// way. The request and the recorder are built once
// and reused, so the count is the server's own. The ratchet: a /search
// request may allocate at most 32 more times than the direct call —
// slack for URL parsing, the body bound, the request's trace info and
// the response header.
func TestHTTPAllocOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	withDoc := core.NewFromDocument(doc, nil)
	t.Run("index-only", func(t *testing.T) {
		checkHTTPAllocOverhead(t, core.NewFromIndex(withDoc.Index(), nil), false)
	})
	t.Run("document", func(t *testing.T) {
		checkHTTPAllocOverhead(t, withDoc, true)
	})
}

func checkHTTPAllocOverhead(t *testing.T, eng *core.Engine, snippets bool) {
	// Sampling off: the ratchet is on the unsampled path.
	srv := New(eng, Config{TraceSampleEvery: -1})
	req := httptest.NewRequest(http.MethodGet, "/search?q=database+query&k=3", nil)
	rec := httptest.NewRecorder()
	serve := func() {
		rec.Body.Reset()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < 50; i++ {
		serve()
	}
	if got := strings.Contains(rec.Body.String(), `"snippet": `); got != snippets {
		t.Fatalf("body carries snippets = %v, want %v", got, snippets)
	}

	terms := []string{"database", "query"}
	ctx := context.Background()
	base := testing.AllocsPerRun(200, func() {
		resp, err := eng.QueryTermsCtx(ctx, terms, core.StrategyPartition, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release() // as the codec does once it has encoded
	})
	served := testing.AllocsPerRun(200, serve)
	t.Logf("allocs/request: HTTP /search %.1f, direct engine call %.1f, overhead %.1f", served, base, served-base)
	if served > base+32 {
		t.Errorf("HTTP /search = %.1f allocs/request, direct = %.1f; overhead %.1f exceeds the 32-alloc ratchet",
			served, base, served-base)
	}
}
