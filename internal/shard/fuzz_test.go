package shard

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/testutil"
	"xrefine/internal/tokenize"
	"xrefine/internal/xmltree"
)

// FuzzShardMerge fuzzes the scatter-gather merge against the monolith:
// an arbitrary (document seed, shard count, query) triple must produce a
// router response identical to a single engine over the unsplit corpus —
// same verdict, same refined queries, same result nodes — for both split
// modes, and must never panic.
func FuzzShardMerge(f *testing.F) {
	f.Add(int64(1), uint8(2), "database query")
	f.Add(int64(7), uint8(3), "databse quary")
	f.Add(int64(42), uint8(4), "keyword serch xml")
	f.Add(int64(0), uint8(1), "tree")
	f.Add(int64(99), uint8(8), "node data system index")
	f.Fuzz(func(t *testing.T, seed int64, n uint8, q string) {
		terms := tokenize.Query(q)
		if len(terms) == 0 {
			return
		}
		if len(terms) > 6 {
			terms = terms[:6] // keyword queries; cap the DP width
		}
		shards := int(n%8) + 1
		doc, err := xmltree.ParseString(testutil.GenXML(rand.New(rand.NewSource(seed))), nil)
		if err != nil {
			t.Fatal(err)
		}
		mono := core.NewFromDocument(doc, &core.Config{DisableMetrics: true})
		resp, err := mono.QueryTermsCtx(context.Background(), terms, core.StrategyPartition, 3, 0)
		if err != nil {
			t.Fatalf("monolith %v: %v", terms, err)
		}
		want := fuzzSig(resp)
		for _, mode := range []string{ModeRange, ModeHash} {
			r := memRouter(t, doc, shards, mode, &core.Config{DisableMetrics: true}, nil)
			got, err := r.QueryTermsCtx(context.Background(), terms, core.StrategyPartition, 3, 0)
			if err != nil {
				t.Fatalf("router %v shards=%d mode=%s: %v", terms, shards, mode, err)
			}
			if s := fuzzSig(got); s != want {
				t.Fatalf("merge diverged (%v, shards=%d, mode=%s):\n got  %s\n want %s",
					terms, shards, mode, s, want)
			}
		}
	})
}

// fuzzSig flattens a response to the fields the server serializes.
func fuzzSig(resp *core.Response) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v|%v|%s|", resp.NeedRefine, resp.Degraded, resp.DegradedReason)
	for _, rq := range resp.Queries {
		fmt.Fprintf(&b, "%s|%v|%v|", strings.Join(rq.Keywords, ","), rq.DSim, rq.Score)
		for _, m := range rq.Results {
			fmt.Fprintf(&b, "%s:%s;", m.ID, m.Type.Path())
		}
	}
	return b.String()
}
