package core_test

import (
	"context"
	"strings"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/experiments"
	"xrefine/internal/index"
	"xrefine/internal/kvstore"
	"xrefine/internal/obs"
	"xrefine/internal/refine"
	"xrefine/internal/shard"
	"xrefine/internal/storage"
)

// These tests read the index package's global codec counters, so they
// must not run beside another test (no t.Parallel).

// listPostings sums the "postings" of every "load-lists" span under d:
// the total length of the lists the query's walk scans, over every shard.
func listPostings(d *obs.SpanData) int64 {
	var n int64
	if d.Name == "load-lists" {
		n, _ = d.Attrs["postings"].(int64)
	}
	for _, c := range d.Children {
		n += listPostings(c)
	}
	return n
}

// TestQueryDecodesEachBlockOnce is Theorem 2 for the whole query: one
// QueryTermsCtx, ranking included, decodes no more postings than the scan
// keywords' lists hold, on the monolith and on a two-shard router, at a K
// whose scans prune and at one so large that nothing is pruned. Each shard
// scan reads its own lists once, and the merge reads none.
func TestQueryDecodesEachBlockOnce(t *testing.T) {
	c, err := experiments.DBLPCorpus(0.2)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 909, Queries: 30})
	if err != nil {
		t.Fatal(err)
	}
	subs, err := shard.SplitDocument(c.Doc, 2, shard.ModeRange)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]storage.Backend, len(subs))
	for i, sub := range subs {
		stores[i] = kvstore.NewMem()
		defer stores[i].Close()
		if err := core.NewFromDocument(sub, &core.Config{DisableMetrics: true}).SaveIndexWithDocument(stores[i]); err != nil {
			t.Fatal(err)
		}
	}
	router, err := shard.NewFromStores(stores, &shard.Options{Config: &core.Config{DisableMetrics: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	for _, b := range []struct {
		name  string
		query func(context.Context, []string, core.Strategy, int, int) (*core.Response, error)
		k     int
	}{
		{"monolith", c.Engine.QueryTermsCtx, 3},
		{"monolith", c.Engine.QueryTermsCtx, 1 << 20},
		{"router", router.QueryTermsCtx, 1},
		{"router", router.QueryTermsCtx, 3},
		{"router", router.QueryTermsCtx, 1 << 20},
	} {
		ranked := 0
		for _, cs := range batch {
			ctx, root := obs.NewTrace(context.Background(), "query")
			before := index.BlockStats().DecodedPostings
			resp, err := b.query(ctx, cs.Corrupted, core.StrategyPartition, b.k, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := index.BlockStats().DecodedPostings - before
			root.End()
			if held := listPostings(root.Data()); got > uint64(held) {
				t.Errorf("%s k=%d q=%s: decoded %d postings, the scan lists hold %d", b.name, b.k, strings.Join(cs.Corrupted, "+"), got, held)
			}
			if resp.NeedRefine && len(resp.Queries) >= min(2, b.k) {
				ranked++
			}
		}
		if ranked == 0 {
			t.Fatalf("%s k=%d: no query ranked min(2, k) refinements", b.name, b.k)
		}
	}
}

// TestDegradedRankDecodesNothing: a query the posting budget stopped is
// ranked from the co-occurrence its walk counted, so nothing is decoded
// after the walk returns.
func TestDegradedRankDecodesNothing(t *testing.T) {
	c, err := experiments.DBLPCorpus(0.2)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 909, Queries: 30})
	if err != nil {
		t.Fatal(err)
	}
	var walked uint64
	eng := core.NewWithExplorer(c.Index, &core.Config{DisableMetrics: true, PostingBudget: 2000},
		func(in refine.Input, k int) (*refine.TopKOutcome, error) {
			out, err := refine.PartitionTopK(in, k)
			walked = index.BlockStats().DecodedPostings
			return out, err
		})
	ranked := 0
	for _, cs := range batch {
		resp, err := eng.QueryTermsCtx(context.Background(), cs.Corrupted, core.StrategyPartition, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if after := index.BlockStats().DecodedPostings; after != walked {
			t.Errorf("q=%s: %d postings decoded after the walk", strings.Join(cs.Corrupted, "+"), after-walked)
		}
		if resp.Degraded && resp.DegradedReason == refine.DegradedPostings && resp.NeedRefine && len(resp.Queries) > 1 {
			ranked++
		}
	}
	if ranked == 0 {
		t.Fatal("no posting-budget-degraded query ranked two refinements")
	}
}
