package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"xrefine/internal/refine"
)

// TestPostingBudgetDegrades: a posting budget too small for the full walk
// must yield a partial response flagged Degraded with the posting-budget
// reason — not an error, not a silently-complete answer.
func TestPostingBudgetDegrades(t *testing.T) {
	e, _ := newEngine(t, &Config{PostingBudget: 1})
	resp, err := query(e, "databse")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("budget of 1 posting did not degrade the response")
	}
	if resp.DegradedReason != refine.DegradedPostings {
		t.Errorf("DegradedReason = %q, want %q", resp.DegradedReason, refine.DegradedPostings)
	}
	st := e.Stats()
	if st.Degraded != 1 {
		t.Errorf("stats Degraded = %d, want 1", st.Degraded)
	}
}

// TestExpiredDeadlineDegrades: a context whose deadline already passed
// degrades the response (reason "deadline") rather than erroring — the
// deadline is a best-effort bound, not a failure.
func TestExpiredDeadlineDegrades(t *testing.T) {
	e, _ := newEngine(t, nil)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	resp, err := e.QueryTermsCtx(ctx, []string{"databse"}, StrategyPartition, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("expired deadline did not degrade the response")
	}
	if resp.DegradedReason != refine.DegradedDeadline {
		t.Errorf("DegradedReason = %q, want %q", resp.DegradedReason, refine.DegradedDeadline)
	}
}

// TestCanceledContextErrors: outright cancellation is the caller leaving —
// the query must fail with context.Canceled, never fabricate a response.
func TestCanceledContextErrors(t *testing.T) {
	e, _ := newEngine(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, eng := range map[string]*Engine{"partition": e, "sle": NewWithExplorer(e.Index(), nil, refine.ShortListEager)} {
		if _, err := eng.QueryTermsCtx(ctx, []string{"databse"}, StrategyPartition, 3, 0); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestZeroConfigNotDegraded: with no deadline and no budget the pipeline
// must behave exactly as before — complete responses, no degraded flag.
func TestZeroConfigNotDegraded(t *testing.T) {
	e, _ := newEngine(t, nil)
	for name, eng := range map[string]*Engine{"partition": e, "sle": NewWithExplorer(e.Index(), nil, refine.ShortListEager)} {
		resp, err := queryTerms(eng, []string{"databse"}, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Degraded || resp.DegradedReason != "" {
			t.Errorf("%s: unconstrained query flagged degraded", name)
		}
	}
}
