package shard

import (
	"context"
	"testing"

	"xrefine/internal/core"
)

// budgetBackend is what the determinism test drives: a monolith or a router.
type budgetBackend interface {
	QueryTermsCtx(ctx context.Context, terms []string, strategy core.Strategy, k, parallelism int) (*core.Response, error)
}

// TestPostingBudgetDeterministic: a posting budget is a deterministic work
// bound. Under one, the walk runs its scans one at a time in the order
// given, so parallel=4 answers exactly like parallel=1 on the monolith and
// on a range-split router (whose shards come in document order), and a
// hash-split router answers the same on every repetition.
func TestPostingBudgetDeterministic(t *testing.T) {
	doc := corpusDoc(t, 120, 7)
	queries := [][]string{{"database", "query"}, {"databse", "quary"}, {"keyword", "serch", "xml"}}
	reps := 50
	if testing.Short() {
		reps = 10
	}
	for _, budget := range []int{50, 400} {
		cfg := &core.Config{PostingBudget: budget}
		backends := []struct {
			name string
			be   budgetBackend
			// ref is the parallelism whose answer every repetition must
			// match: parallel=1, or the first answer itself for hash.
			ref int
		}{
			{"monolith", core.NewFromDocument(doc, cfg), 1},
			{"range-4", memRouter(t, doc, 4, ModeRange, cfg, nil), 1},
			{"hash-4", memRouter(t, doc, 4, ModeHash, cfg, nil), 4},
		}
		for _, b := range backends {
			degraded := 0
			for _, q := range queries {
				query := func(parallelism int) string {
					resp, err := b.be.QueryTermsCtx(context.Background(), q, core.StrategyPartition, 3, parallelism)
					if err != nil {
						t.Fatalf("%s budget=%d %v: %v", b.name, budget, q, err)
					}
					if resp.Degraded {
						degraded++
					}
					return fuzzSig(resp)
				}
				want := query(b.ref)
				for rep := 0; rep < reps; rep++ {
					if got := query(4); got != want {
						t.Fatalf("%s budget=%d %v rep %d: parallel=4 diverged from parallel=%d:\n got  %s\n want %s",
							b.name, budget, q, rep, b.ref, got, want)
					}
				}
			}
			if degraded == 0 {
				t.Errorf("%s budget=%d: no query degraded; the budget asserted nothing", b.name, budget)
			}
		}
	}
}
