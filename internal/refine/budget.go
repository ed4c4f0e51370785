package refine

import (
	"context"
	"errors"
	"sync/atomic"
)

// Degradation reasons reported by TopKOutcome.DegradedReason and surfaced
// all the way up to the HTTP API.
const (
	// DegradedDeadline: the context deadline expired mid-exploration.
	DegradedDeadline = "deadline"
	// DegradedPostings: the posting budget ran out mid-exploration.
	DegradedPostings = "posting-budget"
	// DegradedShardPartial: a shard of a scatter-gather query failed hard
	// (for example on a storage fault) while the query itself stayed
	// alive; its contribution is missing from the merged response. Set by
	// the shard router, which gives it precedence over the budget reasons:
	// a response missing a whole shard is degraded in a stronger sense
	// than one that merely stopped scanning early.
	DegradedShardPartial = "shard-partial"
)

// Budget bounds one query execution cooperatively: a context (carrying a
// caller deadline and cancellation) plus an optional posting budget — a cap
// on how many postings the exploration may consume before it must stop and
// return what it has. One Budget is shared by every scan of a partition
// walk; all state is atomic. A posting limit makes the walk run its scans
// one at a time, in order, so the limit stops the walk at the same
// partition every run.
//
// The two stop causes have different semantics, mirroring what the caller
// wants: an expired deadline or exhausted posting budget means "best effort
// — give me what you found" and the algorithms return a *degraded partial
// outcome*; an explicit cancellation means "the caller is gone" and the
// algorithms abandon the work with the context error.
type Budget struct {
	ctx context.Context
	s   *budgetShared
}

// budgetShared is the accounting all derived views of one budget share:
// hedged scan attempts each carry their own cancelable context
// (WithContext) but charge one posting pool, so a replica race never
// doubles the query's allowance.
type budgetShared struct {
	limit   int64        // posting budget; <= 0 means unlimited
	used    atomic.Int64 // postings consumed so far
	tripped atomic.Bool  // sticky: some check already failed
}

// NewBudget builds a budget from a context and a posting limit. Both
// dimensions are optional: a nil-deadline background context with limit 0
// never stops anything. A nil *Budget is valid everywhere and means
// "unlimited".
func NewBudget(ctx context.Context, postingLimit int) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Budget{ctx: ctx, s: &budgetShared{limit: int64(postingLimit)}}
}

// WithContext derives a budget that shares b's posting accounting but
// observes ctx for cancellation and deadline — the hedged-read hook: the
// router gives every scan attempt its own cancelable context (so the loser
// of a replica race stops promptly) while all attempts draw on the one
// query-wide posting pool. A nil receiver stays nil: unlimited either way.
func (b *Budget) WithContext(ctx context.Context) *Budget {
	if b == nil {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &Budget{ctx: ctx, s: b.s}
}

// Context returns the budget's context (context.Background for nil
// budgets) so downstream stages — SLCA computations, lazy index loads —
// can observe the same cancellation.
func (b *Budget) Context() context.Context {
	if b == nil {
		return context.Background()
	}
	return b.ctx
}

// Charge consumes n postings and reports whether execution may continue.
// False means stop now: the caller consults Reason/Err for why.
func (b *Budget) Charge(n int) bool {
	if b == nil {
		return true
	}
	if b.s.limit > 0 && b.s.used.Add(int64(n)) > b.s.limit {
		b.s.tripped.Store(true)
		return false
	}
	if b.ctx.Err() != nil {
		b.s.tripped.Store(true)
		return false
	}
	return true
}

// postingLimited reports whether b caps postings — the walk's pool then
// runs its scans one at a time (see PoolSize).
func (b *Budget) postingLimited() bool { return b != nil && b.s.limit > 0 }

// Err returns the non-degradable stop cause: the context error when the
// context was canceled outright. Deadline expiry and posting exhaustion —
// the degradable causes — return nil here and are reported by Reason.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if err := b.ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// Reason names the degradable stop cause after a failed Charge/Ok: one of
// the Degraded* constants, or "" when the budget has not tripped (or the
// stop cause is a hard cancellation, which Err reports instead).
func (b *Budget) Reason() string {
	if b == nil || !b.s.tripped.Load() {
		return ""
	}
	if err := b.ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return DegradedDeadline
		}
		return "" // hard cancel: Err carries it
	}
	if b.s.limit > 0 && b.s.used.Load() > b.s.limit {
		return DegradedPostings
	}
	return ""
}
