package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/xmltree"
)

func testServer(t *testing.T) *Server {
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
	return New(core.NewFromDocument(doc, nil), Config{})
}

func get(t *testing.T, s *Server, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: bad JSON: %v\n%s", path, err, rec.Body.String())
	}
	return rec, body
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/healthz")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", rec.Code, body)
	}
	if body["nodes"].(float64) <= 0 {
		t.Error("node count missing")
	}
}

func TestSearchDirect(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/search?q=database+systems")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d", rec.Code)
	}
	if body["need_refine"].(bool) {
		t.Error("clean query flagged for refinement")
	}
	queries := body["queries"].([]any)
	if len(queries) != 1 {
		t.Fatalf("queries = %v", queries)
	}
	q0 := queries[0].(map[string]any)
	if !q0["is_original"].(bool) || len(q0["results"].([]any)) == 0 {
		t.Fatalf("original query body = %v", q0)
	}
	// Snippets present because the engine holds the document.
	r0 := q0["results"].([]any)[0].(map[string]any)
	if r0["snippet"] == nil || r0["snippet"] == "" {
		t.Error("snippet missing")
	}
}

func TestSearchRefines(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/search?q=databse+systems&k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d body %v", rec.Code, body)
	}
	if !body["need_refine"].(bool) {
		t.Fatal("typo query not flagged")
	}
	queries := body["queries"].([]any)
	if len(queries) == 0 || len(queries) > 2 {
		t.Fatalf("queries = %d", len(queries))
	}
	q0 := queries[0].(map[string]any)
	kws := q0["keywords"].([]any)
	joined := ""
	for _, k := range kws {
		joined += k.(string) + " "
	}
	if !strings.Contains(joined, "database") {
		t.Errorf("top refinement = %v", kws)
	}
}

// TestSearchStrategies: partition is the one strategy served — named or
// left out it answers; the retired sle and stack get 400.
func TestSearchStrategies(t *testing.T) {
	s := testServer(t)
	for strat, want := range map[string]int{
		"":          http.StatusOK,
		"partition": http.StatusOK,
		"sle":       http.StatusBadRequest,
		"stack":     http.StatusBadRequest,
	} {
		rec, _ := get(t, s, "/search?q=databse&strategy="+strat)
		if rec.Code != want {
			t.Errorf("strategy %q: code %d, want %d", strat, rec.Code, want)
		}
	}
}

// TestSearchBounds: k and parallel are refused above the bounds the wire
// decoder enforces, and accepted at them.
func TestSearchBounds(t *testing.T) {
	s := testServer(t)
	for path, want := range map[string]int{
		"/search?q=databse&k=2000000":                               http.StatusBadRequest,
		"/search?q=databse&parallel=100000":                         http.StatusBadRequest,
		fmt.Sprintf("/search?q=databse&k=%d", MaxK+1):               http.StatusBadRequest,
		fmt.Sprintf("/search?q=databse&parallel=%d", MaxParallel+1): http.StatusBadRequest,
		fmt.Sprintf("/search?q=databse&k=%d", MaxK):                 http.StatusOK,
		fmt.Sprintf("/search?q=databse&parallel=%d", MaxParallel):   http.StatusOK,
	} {
		if rec, body := get(t, s, path); rec.Code != want {
			t.Errorf("%s: code = %d, want %d (%v)", path, rec.Code, want, body)
		}
	}
}

func TestSearchErrors(t *testing.T) {
	s := testServer(t)
	cases := map[string]int{
		"/search":                    http.StatusBadRequest,
		"/search?q=":                 http.StatusBadRequest,
		"/search?q=x&k=notanumber":   http.StatusBadRequest,
		"/search?q=x&strategy=bogus": http.StatusBadRequest,
		"/narrow":                    http.StatusBadRequest,
		"/narrow?q=x&max=notanumber": http.StatusBadRequest,
	}
	for path, want := range cases {
		rec, body := get(t, s, path)
		if rec.Code != want {
			t.Errorf("%s: code = %d, want %d (%v)", path, rec.Code, want, body)
		}
		if body["error"] == nil {
			t.Errorf("%s: no error message", path)
		}
	}
	// wrong method
	req := httptest.NewRequest(http.MethodPost, "/search?q=x", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /search = %d", rec.Code)
	}
}

func TestNarrowEndpoint(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/narrow?q=database&max=5&k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d %v", rec.Code, body)
	}
	if !body["too_broad"].(bool) {
		t.Fatalf("database not broad: %v", body)
	}
	if body["original_results"].(float64) <= 5 {
		t.Error("original_results inconsistent with too_broad")
	}
}

// TestNarrowHonorsContext: /narrow runs under the request's context, as
// /search does: a client that already went away gets 499, and a request
// whose deadline expired gets 504 instead of a full answer.
func TestNarrowHonorsContext(t *testing.T) {
	s := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/narrow?q=database&max=5&k=2", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("canceled /narrow = %d %s, want %d", rec.Code, rec.Body, statusClientClosedRequest)
	}
	expired := New(s.eng, Config{Timeout: time.Nanosecond})
	if rec, body := get(t, expired, "/narrow?q=database&max=5&k=2"); rec.Code != http.StatusGatewayTimeout {
		t.Errorf("expired /narrow = %d %v, want %d", rec.Code, body, http.StatusGatewayTimeout)
	}
}

func TestNarrowWithoutDocument(t *testing.T) {
	// Engine loaded from a bare index: /narrow must answer 501.
	s := testServer(t)
	ix := s.eng.Index()
	bare := New(core.NewFromIndex(ix, nil), Config{})
	rec, _ := get(t, bare, "/narrow?q=database")
	if rec.Code != http.StatusNotImplemented {
		t.Errorf("document-less narrow = %d", rec.Code)
	}
}

func TestConcurrentRequests(t *testing.T) {
	s := testServer(t)
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(i int) {
			path := "/search?q=databse+systems"
			if i%2 == 0 {
				path = "/search?q=database"
			}
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				done <- fmt.Errorf("code %d", rec.Code)
				return
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompleteEndpoint(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/complete?q=data&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d", rec.Code)
	}
	comps := body["completions"].([]any)
	if len(comps) == 0 || comps[0].(string) != "database" {
		t.Errorf("completions = %v", comps)
	}
	// no matches yields an empty array, not null
	_, body2 := get(t, s, "/complete?q=zzzz")
	if body2["completions"] == nil {
		t.Error("null completions")
	}
	rec3, _ := get(t, s, "/complete")
	if rec3.Code != http.StatusBadRequest {
		t.Errorf("missing q = %d", rec3.Code)
	}
}

func TestHealthzCounters(t *testing.T) {
	s := testServer(t)
	get(t, s, "/search?q=databse")
	get(t, s, "/search?q=database")
	_, body := get(t, s, "/healthz")
	if body["queries"].(float64) < 2 {
		t.Errorf("queries counter = %v", body["queries"])
	}
	if body["refined"].(float64) < 1 {
		t.Errorf("refined counter = %v", body["refined"])
	}
}
