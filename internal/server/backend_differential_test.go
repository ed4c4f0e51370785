package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/storage"
	"xrefine/internal/storage/backends"
)

// TestSearchByteIdenticalAcrossBackends is the storage-engine analogue of
// the config differential: the same corpus persisted through the B+tree
// engine and the Bitcask-style log engine must answer every /search
// byte-for-byte identically — at every parallelism, and
// again after both absorb the same update batches through POST /update.
// The storage layer sits below the index encoding, so nothing about
// segment layout, keydir ordering, or compaction may leak into results.
func TestSearchByteIdenticalAcrossBackends(t *testing.T) {
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 80, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	kinds := []storage.Kind{storage.KindBTree, storage.KindLog}
	servers := make(map[storage.Kind]*Server, len(kinds))
	engines := make(map[storage.Kind]*core.Engine, len(kinds))
	for _, kind := range kinds {
		name := "ix.kv"
		if kind == storage.KindLog {
			name = "ix.logdb"
		}
		path := filepath.Join(dir, name)
		st, err := backends.Open(kind, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		seed := core.NewFromDocument(doc, nil)
		if err := seed.SaveIndexWithDocument(st); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopen so each server serves what its engine persisted, not the
		// in-memory build that wrote it.
		st, err = backends.Open(kind, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		eng, err := core.OpenLive(st, path+".wal", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		engines[kind] = eng
		servers[kind] = New(eng, Config{})
	}

	queries := []string{
		"database query",
		"databse quary", // misspellings force refinement
		"keyword serch xml",
		"twig matching pattern",
	}
	fetch := func(t *testing.T, s *Server, q string, parallel int) string {
		t.Helper()
		v := url.Values{"q": {q}}
		if parallel > 0 {
			v.Set("parallel", fmt.Sprint(parallel))
		}
		req := httptest.NewRequest(http.MethodGet, "/search?"+v.Encode(), nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s parallel=%d: %d %s", q, parallel, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	compare := func(t *testing.T, phase string) {
		t.Helper()
		for _, q := range queries {
			ref := fetch(t, servers[storage.KindBTree], q, 1)
			for _, parallel := range []int{0, 2, 4} {
				if got := fetch(t, servers[storage.KindLog], q, parallel); got != ref {
					t.Errorf("%s: log backend: %q parallel=%d diverged from btree\nlog:   %s\nbtree: %s",
						phase, q, parallel, got, ref)
				}
			}
		}
	}
	compare(t, "cold open")

	// Same update stream into both engines; results must stay locked.
	batches, err := datagen.Updates(doc, datagen.UpdatesConfig{Batches: 4, Ops: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range kinds {
		for i, b := range batches {
			j, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(string(j)))
			rec := httptest.NewRecorder()
			servers[kind].ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s batch %d: /update = %d %s", kind, i, rec.Code, rec.Body.String())
			}
		}
	}
	compare(t, "after updates")

	// And once more after a checkpoint: compaction plus hint-file writes
	// on the log engine must not perturb a single response byte.
	for _, kind := range kinds {
		if err := engines[kind].Checkpoint(); err != nil {
			t.Fatalf("%s: checkpoint: %v", kind, err)
		}
	}
	compare(t, "after checkpoint")
}
