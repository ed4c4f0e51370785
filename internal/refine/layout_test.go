package refine_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/xmltree"
)

// rankedSig renders what a client reads of a ranked answer, less the
// result labels, which a change of layout renumbers: the verdict, then
// each ranked query's keywords, dSim, score and result count.
func rankedSig(resp *core.Response) string {
	var b strings.Builder
	fmt.Fprintf(&b, "refine=%v\n", resp.NeedRefine)
	for _, q := range resp.Queries {
		fmt.Fprintf(&b, "%v dsim=%v score=%v results=%d\n", q.Keywords, q.DSim, q.Score, len(q.Results))
	}
	return b.String()
}

// TestReversedPartitionsRankAlike: Algorithm 2's answer is a function of
// the document, not of its layout. The golden corpus rebuilt with its
// depth-1 partitions in reverse order answers each golden request — the
// walk queries at k ∈ {1, 3, 10} — with the same ranked refined queries,
// dissimilarities, scores and result counts as the corpus itself.
func TestReversedPartitionsRankAlike(t *testing.T) {
	c := walkCorpus(t)
	parts := c.Doc.Partitions()
	docs := make([]*xmltree.Document, len(parts))
	for i, p := range parts {
		docs[len(parts)-1-i] = &xmltree.Document{Root: p}
	}
	rev, err := xmltree.Collection(c.Doc.Root.Tag, docs...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &core.Config{DisableMetrics: true}
	fwd, bwd := core.NewFromDocument(c.Doc, cfg), core.NewFromDocument(rev, cfg)
	requests, moved := 0, 0
	for _, k := range []int{1, 3, 10} {
		for _, terms := range walkQueries(t, c) {
			a, err := fwd.QueryTermsCtx(context.Background(), terms, core.StrategyPartition, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := bwd.QueryTermsCtx(context.Background(), terms, core.StrategyPartition, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			requests++
			if got, want := rankedSig(b), rankedSig(a); got != want {
				moved++
				t.Errorf("k=%d q=%s: reversed partitions ranked\n%s\nthe corpus ranked\n%s", k, strings.Join(terms, "+"), got, want)
			}
		}
	}
	t.Logf("%d of %d requests ranked differently", moved, requests)
}
