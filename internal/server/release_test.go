package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/experiments"
)

// goldenWalkQueries is the golden walk workload of internal/refine's
// walk_counts.golden and internal/wire's answers.golden: the seed-909
// Table-VIII workload on the DBLP corpus at a fifth of full scale, plus
// four frequent-term queries.
func goldenWalkQueries(t *testing.T) (*experiments.Corpus, [][]string) {
	t.Helper()
	c, err := experiments.DBLPCorpus(0.2)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 909, Queries: 30})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([][]string, 0, len(batch)+4)
	for _, cs := range batch {
		qs = append(qs, cs.Corrupted)
	}
	vocab := slices.Clone(c.Index.Vocabulary())
	sort.SliceStable(vocab, func(a, b int) bool {
		return c.Index.ListLen(vocab[a]) > c.Index.ListLen(vocab[b])
	})
	f := vocab[:4]
	return c, append(qs, f[:2], f[1:3], f[:3], []string{"databse", f[2], f[3]})
}

// TestHeldResponsesEncodeAsFresh: a response holds its walk state until
// it is released, so responses a caller holds are never overwritten by
// the queries that run meanwhile. Goroutines each run 8 queries, hold all
// 8 responses while the others query and release, then encode each and
// release it; every body equals the one an engine that never reuses a
// state gives. Run under -race, this also checks that no state is shared
// between two live responses.
func TestHeldResponsesEncodeAsFresh(t *testing.T) {
	c, queries := goldenWalkQueries(t)
	if testing.Short() {
		queries = queries[len(queries)-12:]
	}
	ctx := context.Background()
	fresh := core.NewFromDocument(c.Doc, &core.Config{DisableMetrics: true})
	want := make([]string, len(queries))
	for i, q := range queries {
		resp, err := fresh.QueryTermsCtx(ctx, q, core.StrategyPartition, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(AppendSearchBody(nil, resp, fresh, nil)) // never released
	}
	eng := core.NewFromDocument(c.Doc, &core.Config{DisableMetrics: true})
	const goroutines, held, rounds = 4, 8, 3
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body []byte
			for r := range rounds {
				idx := make([]int, held)
				resps := make([]*core.Response, held)
				for j := range held {
					idx[j] = (g*held + r*5 + j*3) % len(queries)
					resp, err := eng.QueryTermsCtx(ctx, queries[idx[j]], core.StrategyPartition, 3, 0)
					if err != nil {
						t.Error(err)
						return
					}
					resps[j] = resp
				}
				for j, resp := range resps {
					body = AppendSearchBody(body[:0], resp, eng, nil)
					resp.Release()
					if string(body) != want[idx[j]] {
						t.Errorf("goroutine %d round %d: held answer to %v differs from a fresh one", g, r, queries[idx[j]])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// servedBytesCeiling bounds the mean bytes a served /search request
// allocates on the golden walk workload at k=3, release included: the
// engine's answer, its encoding into a pooled body and the handler's own.
// Lower it as requests get cheaper; never raise it.
const servedBytesCeiling = 15460

// TestServedSearchBytes is the served path's bytes ratchet: passes of the
// golden walk workload through the HTTP handler, each response released
// once encoded, after a warm pass has grown the walk state, the body
// buffer and the resident lists. It measures at one P with the collector
// off, so that no sync.Pool item (the body buffer, the cursor scratch)
// is dropped or missed mid-measurement.
func TestServedSearchBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, queries := goldenWalkQueries(t)
	srv := New(core.NewFromDocument(c.Doc, &core.Config{DisableMetrics: true}), Config{TraceSampleEvery: -1})
	reqs := make([]*http.Request, len(queries))
	for i, q := range queries {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/search?k=3&q="+url.QueryEscape(strings.Join(q, " ")), nil)
	}
	rec := httptest.NewRecorder()
	pass := func() {
		for _, req := range reqs {
			rec.Body.Reset()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
	}
	pass()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const passes = 3
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for range passes {
		pass()
	}
	runtime.ReadMemStats(&ms)
	got := float64(ms.TotalAlloc-before) / float64(passes*len(reqs))
	t.Logf("%.0f bytes per served /search request, mean over %d queries", got, len(reqs))
	if got > servedBytesCeiling {
		t.Errorf("a served /search request allocated %.0f bytes, ceiling %d", got, servedBytesCeiling)
	}
}
