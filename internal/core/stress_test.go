package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xrefine/internal/kvstore"
)

// TestConcurrentQueriesRace drives one engine from many goroutines with a
// mixed workload over lazily loaded posting lists and checks every response
// against a single-threaded reference. Run under -race this covers the
// index singleflight (concurrent first touches of the same and different
// terms over the kvstore).
func TestConcurrentQueriesRace(t *testing.T) {
	ref, _ := newEngine(t, nil)
	store := kvstore.NewMem()
	defer store.Close()
	if err := ref.SaveIndex(store); err != nil {
		t.Fatal(err)
	}
	// The engine under test loads lists lazily from the store.
	eng, err := Open(store, nil)
	if err != nil {
		t.Fatal(err)
	}

	queries := [][]string{
		{"online", "database"},
		{"online", "databse"},
		{"keyword", "search"},
		{"matching", "twig", "patterns"},
		{"skyline"},
		{"database", "systems"},
		{"efficient", "keyword"},
		{"publication", "search"},
	}
	type expectation struct {
		sig string
		err string
	}
	want := make([]expectation, len(queries))
	for i, q := range queries {
		resp, err := queryTerms(ref, q, 3)
		if err != nil {
			want[i] = expectation{err: err.Error()}
			continue
		}
		want[i] = expectation{sig: responseSig(resp)}
	}

	const goroutines = 8
	const rounds = 30
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g*rounds + r*13) % len(queries)
				resp, err := queryTerms(eng, queries[i], 3)
				if err != nil {
					if want[i].err != err.Error() {
						errs <- fmt.Sprintf("query %v: error %q, want %q", queries[i], err, want[i].err)
						return
					}
					continue
				}
				if got := responseSig(resp); got != want[i].sig {
					errs <- fmt.Sprintf("query %v diverged under concurrency:\ngot  %s\nwant %s", queries[i], got, want[i].sig)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := counter(eng, "xrefine_engine_queries_total"); n != goroutines*rounds {
		t.Errorf("queries = %d, want %d", n, goroutines*rounds)
	}
}

// responseSig flattens the fields the differential cares about.
func responseSig(r *Response) string {
	var b strings.Builder
	fmt.Fprintf(&b, "refine=%v;", r.NeedRefine)
	for _, q := range r.Queries {
		fmt.Fprintf(&b, "%s|%.4f|%.6f|", strings.Join(q.Keywords, ","), q.DSim, q.Score)
		for _, m := range q.Results {
			fmt.Fprintf(&b, "%s:%s;", m.ID, m.Type.Path())
		}
	}
	return b.String()
}
