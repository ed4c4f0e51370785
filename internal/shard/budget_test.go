package shard

import (
	"context"
	"testing"

	"xrefine/internal/core"
)

// budgetBackend is what the determinism test drives: a monolith or a router.
type budgetBackend interface {
	QueryTermsCtx(ctx context.Context, terms []string, strategy core.Strategy, k, _ int) (*core.Response, error)
}

// TestPostingBudgetDeterministic: a posting budget is a deterministic work
// bound. Under one, a router runs its shard scans one at a time in the
// order given, so the monolith and a range- or hash-split router each
// answer the same on every repetition.
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
		}{
			{"monolith", core.NewFromDocument(doc, cfg)},
			{"range-4", memRouter(t, doc, 4, ModeRange, cfg, nil)},
			{"hash-4", memRouter(t, doc, 4, ModeHash, cfg, nil)},
		}
		for _, b := range backends {
			degraded := 0
			for _, q := range queries {
				query := func() string {
					resp, err := b.be.QueryTermsCtx(context.Background(), q, core.StrategyPartition, 3, 0)
					if err != nil {
						t.Fatalf("%s budget=%d %v: %v", b.name, budget, q, err)
					}
					if resp.Degraded {
						degraded++
					}
					return fuzzSig(resp)
				}
				want := query()
				for rep := 0; rep < reps; rep++ {
					if got := query(); got != want {
						t.Fatalf("%s budget=%d %v rep %d diverged from the first answer:\n got  %s\n want %s",
							b.name, budget, q, rep, got, want)
					}
				}
			}
			if degraded == 0 {
				t.Errorf("%s budget=%d: no query degraded; the budget asserted nothing", b.name, budget)
			}
		}
	}
}
