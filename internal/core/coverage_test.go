package core

import (
	"context"
	"strings"
	"testing"

	"xrefine/internal/refine"
)

// Targeted tests for entry points the broader suites reach only through
// other packages.

func TestNewFromXMLAndErrors(t *testing.T) {
	eng, err := NewFromXML(strings.NewReader(`<r><a><b>word here</b></a></r>`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Document() == nil {
		t.Error("NewFromXML should retain the document")
	}
	if _, err := NewFromXML(strings.NewReader("not xml"), nil); err == nil {
		t.Error("malformed XML accepted")
	}
	if _, err := NewFromXMLStream(strings.NewReader("<a><b></a>"), nil); err == nil {
		t.Error("malformed XML accepted by stream builder")
	}
}

// capturingEngine serves e's index through an explorer that records the
// prepared input and the raw top-2K outcome of the last query — the hook
// the experiments re-rank candidates through.
func capturingEngine(e *Engine) (*Engine, *refine.Input, **refine.TopKOutcome) {
	in, out := new(refine.Input), new(*refine.TopKOutcome)
	eng := NewWithExplorer(e.Index(), nil, func(i refine.Input, k int) (*refine.TopKOutcome, error) {
		*in = i
		o, err := refine.PartitionTopK(i, k)
		*out = o
		return o, err
	})
	return eng, in, out
}

func TestExploreDirect(t *testing.T) {
	e, _ := newEngine(t, nil)
	eng, _, out := capturingEngine(e)
	resp, err := queryTerms(eng, []string{"online", "databse"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if *out == nil || len((*out).Candidates) == 0 {
		t.Fatal("no candidates captured from the exploration")
	}
	if len((*out).Candidates) < len(resp.Queries) {
		t.Errorf("raw top-2K holds %d candidates, response ranks %d", len((*out).Candidates), len(resp.Queries))
	}
	if len(resp.SearchFor) == 0 {
		t.Error("no search-for candidates")
	}
	if _, err := queryTerms(eng, nil, 3); err == nil {
		t.Error("empty terms accepted")
	}
}

// TestUnknownStrategyRejected: only StrategyPartition is served; any other
// strategy value is an error, not a silent fallback.
func TestUnknownStrategyRejected(t *testing.T) {
	e, _ := newEngine(t, nil)
	for _, s := range []Strategy{1, 2, 99} {
		if _, err := e.QueryTermsCtx(context.Background(), []string{"online"}, s, 1, 0); err == nil {
			t.Errorf("strategy %d accepted", s)
		}
	}
	if n := counter(e, "xrefine_engine_queries_total"); n != 0 {
		t.Errorf("refused queries counted: %d", n)
	}
}

// TestStackStrategyNoRefinementFound: on a hopeless query stack-refine, run
// over the input the engine prepared, finds no refinement, and neither
// does the served walk.
func TestStackStrategyNoRefinementFound(t *testing.T) {
	e, _ := newEngine(t, nil)
	eng, in, _ := capturingEngine(e)
	resp, err := queryTerms(eng, []string{"zzzz", "qqqq"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.NeedRefine || len(resp.Queries) != 0 {
		t.Fatalf("hopeless query: %+v", resp)
	}
	st, err := refine.Stack(*in)
	if err != nil {
		t.Fatal(err)
	}
	if !st.NeedRefine || st.Found {
		t.Fatalf("hopeless stack query: %+v", st)
	}
}
