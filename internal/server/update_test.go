package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/kvstore"
	"xrefine/internal/xmltree"
)

func postUpdate(t *testing.T, s *Server, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var out map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("/update: bad JSON: %v\n%s", err, rec.Body.String())
		}
	}
	return rec, out
}

func TestUpdateEndpoint(t *testing.T) {
	s := testServer(t)

	// The new content must be invisible before the update...
	rec, body := get(t, s, "/search?q=epoch+sentinel")
	if rec.Code != http.StatusOK {
		t.Fatalf("pre-update search = %d", rec.Code)
	}
	if !body["need_refine"].(bool) {
		t.Fatal("sentinel terms matched before the update was applied")
	}

	rec, out := postUpdate(t, s, `{"ops":[
		{"op":"insert","parent":"0","xml":"<author><publications><paper><title>epoch sentinel paper</title></paper></publications></author>"}
	]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("/update = %d %s", rec.Code, rec.Body.String())
	}
	if out["epoch"].(float64) != 1 || out["insert_ops"].(float64) != 1 {
		t.Fatalf("/update body = %v", out)
	}

	// ...and queryable right after, with no server restart.
	rec, body = get(t, s, "/search?q=epoch+sentinel")
	if rec.Code != http.StatusOK || body["need_refine"].(bool) {
		t.Fatalf("post-update search = %d %v", rec.Code, body)
	}

	// Healthz reports the new epoch and the applied work.
	rec, health := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if health["epoch"].(float64) != 1 || health["applied_batches"].(float64) != 1 {
		t.Fatalf("healthz after update = %v", health)
	}
	if health["live_updates"].(bool) {
		t.Error("in-memory server claims live persistence")
	}
}

func TestUpdateEndpointRejections(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		name, method, body string
		want               int
	}{
		{"get", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"malformed json", http.MethodPost, `{"ops":[`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, `{"operations":[]}`, http.StatusBadRequest},
		{"empty batch", http.MethodPost, `{"ops":[]}`, http.StatusBadRequest},
		{"unknown op", http.MethodPost, `{"ops":[{"op":"upsert","parent":"0"}]}`, http.StatusBadRequest},
		{"insert without xml", http.MethodPost, `{"ops":[{"op":"insert","parent":"0"}]}`, http.StatusBadRequest},
		{"bad dewey label", http.MethodPost, `{"ops":[{"op":"delete","target":"zero"}]}`, http.StatusBadRequest},
		{"missing target", http.MethodPost, `{"ops":[{"op":"delete","target":"0.999"}]}`, http.StatusUnprocessableEntity},
		{"root delete", http.MethodPost, `{"ops":[{"op":"delete","target":"0"}]}`, http.StatusUnprocessableEntity},
		{"bad fragment", http.MethodPost, `{"ops":[{"op":"insert","parent":"0","xml":"<open>"}]}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, "/update", strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Fatalf("%s %q = %d, want %d (%s)", tc.method, tc.body, rec.Code, tc.want, rec.Body.String())
			}
		})
	}
	// None of the rejected batches may have advanced the epoch.
	if _, health := get(t, s, "/healthz"); health["epoch"].(float64) != 0 {
		t.Fatalf("rejected batches advanced the epoch: %v", health)
	}
}

// TestUpdateEndpointLivePersists drives the full production path: a store
// seeded on disk, a live server applying updates over HTTP, and a second
// server opened from the same store observing the committed epoch.
func TestUpdateEndpointLivePersists(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.kv")
	wal := filepath.Join(dir, "ix.wal")
	doc, err := xmltree.ParseString(
		"<bib><author><publications><paper><title>database query refinement</title></paper></publications></author></bib>", nil)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := kvstore.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewFromDocument(doc, nil)
	if err := eng.SaveIndexWithDocument(seed); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	store, err := kvstore.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	live, err := core.OpenLive(store, wal, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(live, Config{})
	rec, out := postUpdate(t, s, `{"ops":[
		{"op":"insert","parent":"0","xml":"<author><publications><paper><title>durable sentinel</title></paper></publications></author>"}
	]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("/update = %d %s", rec.Code, rec.Body.String())
	}
	if out["wal_bytes"].(float64) <= 0 {
		t.Fatalf("live update reported no WAL write: %v", out)
	}
	if _, health := get(t, s, "/healthz"); health["live_updates"] != true {
		t.Fatalf("live server healthz = %v", health)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := kvstore.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	reopened, err := core.OpenLive(store2, wal, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	s2 := New(reopened, Config{})
	rec, body := get(t, s2, "/search?q=durable+sentinel")
	if rec.Code != http.StatusOK || body["need_refine"].(bool) {
		t.Fatalf("reopened server lost the update: %d %v", rec.Code, body)
	}
	if st := reopened.UpdateStats(); st.Epoch != 1 || st.ReplayedBatches != 0 {
		t.Fatalf("reopened stats = %+v, want epoch 1 with no replay", st)
	}
}

// TestUpdateEndpointShedsUnderGate verifies updates share the admission
// gate with queries: a full gate sheds POST /update with 503 rather than
// queueing writers behind it.
func TestUpdateEndpointShedsUnderGate(t *testing.T) {
	s := New(testServer(t).eng, Config{MaxInFlight: 1})
	// Occupy the single slot directly; the next request must shed.
	s.pipe.gate <- struct{}{}
	defer func() { <-s.pipe.gate }()
	rec, _ := postUpdate(t, s, `{"ops":[{"op":"delete","target":"0.1"}]}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("gated /update = %d, want 503", rec.Code)
	}
	if _, health := get(t, s, "/healthz"); health["epoch"].(float64) != 0 {
		t.Fatal("shed update still applied")
	}
}
