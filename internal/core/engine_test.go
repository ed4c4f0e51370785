package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xrefine/internal/experiments/reference"
	"xrefine/internal/index"
	"xrefine/internal/kvstore"
	"xrefine/internal/obs"
	"xrefine/internal/refine"
	"xrefine/internal/storage"
	"xrefine/internal/tokenize"
	"xrefine/internal/xmltree"
)

// A small bibliography that exercises every refinement operation: synonyms
// (publication ~ inproceedings/article via the builtin lexicon), merging
// (key word -> keyword), splitting, spelling (databse -> database) and
// stemming (match -> matching).
const corpus = `
<bib>
  <author>
    <name>John Ben</name>
    <publications>
      <inproceedings>
        <title>online database systems</title>
        <year>2003</year>
      </inproceedings>
      <inproceedings>
        <title>efficient keyword search</title>
        <year>2005</year>
      </inproceedings>
    </publications>
  </author>
  <author>
    <name>Mary Lee</name>
    <publications>
      <article>
        <title>matching twig patterns in database systems</title>
        <year>2006</year>
      </article>
      <inproceedings>
        <title>skyline computation</title>
        <year>2007</year>
      </inproceedings>
    </publications>
  </author>
</bib>`

func newEngine(t testing.TB, cfg *Config) (*Engine, *xmltree.Document) {
	t.Helper()
	doc, err := xmltree.ParseString(corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewFromDocument(doc, cfg), doc
}

// queryCtx answers a raw query string the way the serving pipeline does:
// tokenized under a "tokenize" span of ctx's trace, then QueryTermsCtx at
// the engine's configured K.
func queryCtx(ctx context.Context, e *Engine, q string) (*Response, error) {
	tsp := obs.SpanFromContext(ctx).StartChild("tokenize")
	terms := tokenize.Query(q)
	if tsp != nil {
		tsp.SetInt("terms", int64(len(terms)))
		tsp.End()
	}
	return e.QueryTermsCtx(ctx, terms, StrategyPartition, 0, 0)
}

func query(e *Engine, q string) (*Response, error) { return queryCtx(context.Background(), e, q) }

func queryTerms(e *Engine, terms []string, k int) (*Response, error) {
	return e.QueryTermsCtx(context.Background(), terms, StrategyPartition, k, 0)
}

func TestSatisfiableQueryNeedsNoRefinement(t *testing.T) {
	e, _ := newEngine(t, nil)
	resp, err := query(e, "online database")
	if err != nil {
		t.Fatal(err)
	}
	if resp.NeedRefine {
		t.Fatal("satisfiable query flagged for refinement")
	}
	if len(resp.Queries) != 1 || !resp.Queries[0].IsOriginal {
		t.Fatalf("queries = %+v", resp.Queries)
	}
	if len(resp.Queries[0].Results) == 0 {
		t.Fatal("no results for original query")
	}
	if got := resp.Queries[0].Results[0].ID.String(); got != "0.0.1.0.0" {
		t.Errorf("result = %s, want 0.0.1.0.0 (the title holding both terms)", got)
	}
}

func TestSpellingRefinement(t *testing.T) {
	e, _ := newEngine(t, nil)
	resp, err := query(e, "online databse")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.NeedRefine {
		t.Fatal("misspelled query not flagged")
	}
	if len(resp.Queries) == 0 {
		t.Fatal("no refinements offered")
	}
	best := resp.Queries[0]
	if strings.Join(best.Keywords, " ") != "database online" {
		t.Errorf("best refinement = %v", best.Keywords)
	}
	if best.DSim != 1 {
		t.Errorf("dSim = %v, want 1 (one edit)", best.DSim)
	}
	if len(best.Results) == 0 {
		t.Error("refinement has no results")
	}
}

func TestSynonymRefinementPaperExample1(t *testing.T) {
	// The paper's Example 1: {database, publication} where the data uses
	// inproceedings/article instead of "publication".
	e, _ := newEngine(t, nil)
	resp, err := query(e, "database publication")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.NeedRefine {
		t.Fatal("mismatched query not flagged")
	}
	found := false
	for _, q := range resp.Queries {
		kws := strings.Join(q.Keywords, " ")
		if kws == "database inproceedings" || kws == "article database" {
			found = true
			if len(q.Results) == 0 {
				t.Errorf("synonym refinement %v has no results", q.Keywords)
			}
		}
	}
	if !found {
		t.Errorf("no synonym-substituted refinement among %+v", resp.Queries)
	}
}

func TestMergeRefinement(t *testing.T) {
	e, _ := newEngine(t, nil)
	resp, err := query(e, "efficient key word search")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.NeedRefine {
		t.Fatal("expected refinement")
	}
	best := resp.Queries[0]
	if strings.Join(best.Keywords, " ") != "efficient keyword search" {
		t.Errorf("best = %v", best.Keywords)
	}
	if best.DSim != 1 {
		t.Errorf("dSim = %v", best.DSim)
	}
}

func TestStemmingRefinement(t *testing.T) {
	e, _ := newEngine(t, nil)
	resp, err := query(e, "match twig patterns")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.NeedRefine {
		t.Fatal("expected refinement")
	}
	var keys []string
	for _, q := range resp.Queries {
		keys = append(keys, strings.Join(q.Keywords, " "))
	}
	if !contains(keys, "matching twig") && !contains(keys, "matching patterns twig") && !contains(keys, "matching pattern twig") {
		t.Errorf("no stemming refinement in %v", keys)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestStrategiesAgreeOnBestDissimilarity checks Theorems 1–2 on the
// engine: the served Partition walk, short-list eager run through
// NewWithExplorer, and stack-refine (Algorithm 1) over the very input the
// engine prepared all reach the same minimum dissimilarity.
func TestStrategiesAgreeOnBestDissimilarity(t *testing.T) {
	queries := []string{
		"online databse",
		"efficient key word search",
		"database publication",
		"skylinecomputation",
	}
	minDSim := func(q string, resp *Response) float64 {
		if !resp.NeedRefine || len(resp.Queries) == 0 {
			t.Fatalf("%s: unexpected outcome %+v", q, resp)
		}
		min := resp.Queries[0].DSim
		for _, rq := range resp.Queries {
			if rq.DSim < min {
				min = rq.DSim
			}
		}
		return min
	}
	for _, q := range queries {
		var in refine.Input
		e, _ := newEngine(t, nil)
		e = NewWithExplorer(e.Index(), nil, func(i refine.Input, k int) (*refine.TopKOutcome, error) {
			in = i
			return refine.PartitionTopK(i, k)
		})
		resp, err := query(e, q)
		if err != nil {
			t.Fatalf("%s/partition: %v", q, err)
		}
		sle, err := query(NewWithExplorer(e.Index(), nil, reference.ShortListEager), q)
		if err != nil {
			t.Fatalf("%s/sle: %v", q, err)
		}
		st, err := reference.StackRefine(in)
		if err != nil {
			t.Fatalf("%s/stack: %v", q, err)
		}
		if !st.NeedRefine || !st.Found {
			t.Fatalf("%s/stack: unexpected outcome %+v", q, st)
		}
		if p, s := minDSim(q, resp), minDSim(q, sle); p != s || s != st.Best.DSim {
			t.Errorf("%s: best dSim disagrees: partition %v, sle %v, stack %v", q, p, s, st.Best.DSim)
		}
	}
}

func TestTopKLimit(t *testing.T) {
	e, _ := newEngine(t, &Config{TopK: 1})
	resp, err := query(e, "database publication")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Queries) > 1 {
		t.Errorf("TopK=1 returned %d queries", len(resp.Queries))
	}
}

func TestRankingOrdersQueries(t *testing.T) {
	e, _ := newEngine(t, &Config{TopK: 5})
	resp, err := query(e, "database publication")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(resp.Queries); i++ {
		if resp.Queries[i-1].Score < resp.Queries[i].Score {
			t.Errorf("queries not sorted by score: %v then %v",
				resp.Queries[i-1].Score, resp.Queries[i].Score)
		}
	}
}

func TestEmptyQueryRejected(t *testing.T) {
	e, _ := newEngine(t, nil)
	if _, err := query(e, "   ,, "); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := queryTerms(e, nil, 3); err == nil {
		t.Error("nil terms accepted")
	}
}

func TestHopelessQuery(t *testing.T) {
	e, _ := newEngine(t, nil)
	resp, err := query(e, "zzzz qqqq xxxx")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.NeedRefine {
		t.Error("hopeless query not flagged")
	}
	// No crash; possibly zero refinements.
}

func TestEngineFromSavedIndex(t *testing.T) {
	e, _ := newEngine(t, nil)
	store := kvstore.NewMem()
	defer store.Close()
	if err := e.SaveIndex(store); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := query(e, "online databse")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := query(e2, "online databse")
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Queries) != len(r2.Queries) {
		t.Fatalf("saved/loaded engines disagree: %d vs %d queries", len(r1.Queries), len(r2.Queries))
	}
	for i := range r1.Queries {
		if strings.Join(r1.Queries[i].Keywords, " ") != strings.Join(r2.Queries[i].Keywords, " ") {
			t.Errorf("query %d keywords differ", i)
		}
		if len(r1.Queries[i].Results) != len(r2.Queries[i].Results) {
			t.Errorf("query %d result counts differ", i)
		}
	}
}

// TestRetiredStoreFormatsRefused: a store written before the block codec
// (one delta-coded posting per cell — every list chunk opens with 0x00) or
// carrying a document stream without the version marker must fail to open
// with the typed storage.ErrUnsupportedFormat, not be decoded by a
// compatibility path and not surface as a parse error mid-query.
func TestRetiredStoreFormatsRefused(t *testing.T) {
	e, _ := newEngine(t, nil)
	retire := map[string]func(t *testing.T, s *kvstore.Store){
		"pre-codec posting chunks": func(t *testing.T, s *kvstore.Store) {
			var first []byte
			if err := s.Range([]byte("L\x00"), []byte("L\x01"), func(k, _ []byte) bool {
				first = append(first, k...)
				return false
			}); err != nil || first == nil {
				t.Fatalf("no list chunk to rewrite: %v", err)
			}
			// shared=0 extra=1 component=0 type=0: the old one-posting cell.
			if err := s.Put(first, []byte{0, 1, 0, 0}); err != nil {
				t.Fatal(err)
			}
		},
		"v1 document stream": func(t *testing.T, s *kvstore.Store) {
			if ok, err := s.Delete([]byte("D\x00v")); err != nil || !ok {
				t.Fatalf("no doc version marker to drop: %v %v", ok, err)
			}
		},
	}
	for name, damage := range retire {
		t.Run(name, func(t *testing.T) {
			store := kvstore.NewMem()
			defer store.Close()
			if err := e.SaveIndexWithDocument(store); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(store, nil); err != nil {
				t.Fatalf("current-format store: %v", err)
			}
			damage(t, store)
			if err := store.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(store, nil); !errors.Is(err, storage.ErrUnsupportedFormat) {
				t.Fatalf("Open = %v, want storage.ErrUnsupportedFormat", err)
			}
		})
	}
}

func matchIDs(ms []refine.Match) string {
	var b strings.Builder
	for _, m := range ms {
		b.WriteString(m.ID.String() + " ")
	}
	return b.String()
}

func TestSnippet(t *testing.T) {
	e, doc := newEngine(t, nil)
	resp, err := query(e, "online database")
	if err != nil {
		t.Fatal(err)
	}
	m := resp.Queries[0].Results[0]
	s := Snippet(doc, m, 50)
	if !strings.Contains(s, "online database") {
		t.Errorf("snippet = %q", s)
	}
	bare := Snippet(nil, m, 50)
	if !strings.Contains(bare, m.ID.String()) {
		t.Errorf("bare snippet = %q", bare)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyPartition.String() != "partition" || Strategy(1).String() != "unknown" {
		t.Error("Strategy.String broken")
	}
}

func TestStreamEngineMatchesTreeEngine(t *testing.T) {
	tree, _ := newEngine(t, nil)
	ix, err := index.BuildStream(strings.NewReader(corpus), nil)
	if err != nil {
		t.Fatal(err)
	}
	streamed := NewFromIndex(ix, nil)
	if streamed.Document() != nil {
		t.Error("stream engine should have no document")
	}
	for _, q := range []string{"online databse", "efficient key word search", "database publication"} {
		r1, err := query(tree, q)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := query(streamed, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Queries) != len(r2.Queries) {
			t.Fatalf("%q: %d vs %d queries", q, len(r1.Queries), len(r2.Queries))
		}
		for i := range r1.Queries {
			if strings.Join(r1.Queries[i].Keywords, " ") != strings.Join(r2.Queries[i].Keywords, " ") ||
				len(r1.Queries[i].Results) != len(r2.Queries[i].Results) {
				t.Fatalf("%q: query %d differs", q, i)
			}
		}
	}
}

func TestComplete(t *testing.T) {
	e, _ := newEngine(t, nil)
	got := e.Complete("data", 5)
	if len(got) == 0 || got[0] != "database" {
		t.Errorf("Complete(data) = %v", got)
	}
	// completes the LAST token
	got2 := e.Complete("online dat", 5)
	if len(got2) == 0 || !strings.HasPrefix(got2[0], "dat") {
		t.Errorf("Complete(online dat) = %v", got2)
	}
	if e.Complete("   ", 5) != nil {
		t.Error("blank partial completed")
	}
	if e.Complete("zzzz", 5) != nil {
		t.Error("no-match prefix completed")
	}
	if got := e.Complete("s", 2); len(got) > 2 {
		t.Errorf("k ignored: %v", got)
	}
}
