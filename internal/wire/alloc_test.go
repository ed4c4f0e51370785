package wire

import (
	"context"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/server"
)

// TestWireAllocOverhead extends the PR-3 instrumentation ratchet to the
// full wire round trip: read frame → decode → query → encode → write,
// plus the client's send/recv. AllocsPerRun counts process-wide mallocs,
// so with a zero-alloc client (pre-sized buffers, reused Response) the
// measurement is the whole server path. The ratchet: a warm wire round
// trip may allocate at most 2 more times per request than calling
// Engine.QueryTermsCtx directly — slack for the decoded terms slice and
// the runtime's network-poll bookkeeping.
//
// The engine is index-only (no document), so Snippet reports ok=false
// and the encoder path is exercised without the per-snippet string
// allocation — the same shape the mem gate measures.
func TestWireAllocOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewFromIndex(core.NewFromDocument(doc, nil).Index(), nil)
	// Sampling off: the ratchet is on the unsampled path, where a retained
	// span tree (1 request in 64 by default) would only add noise.
	_, addr := serveWire(t, server.New(eng, server.Config{TraceSampleEvery: -1}).Pipeline())
	c := dial(t, addr)

	terms := []string{"database", "query"}
	const strat = byte(core.StrategyPartition)

	// Warm everything that legitimately allocates once per connection:
	// the lazily loaded lists, the per-conn intern table, frame buffers,
	// and the client's buffers.
	for i := 0; i < 50; i++ {
		resp, err := c.Query(7, strat, 3, 0, terms)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("status %d: %s", resp.Status, resp.Payload)
		}
	}

	ctx := context.Background()
	base := testing.AllocsPerRun(200, func() {
		if _, err := eng.QueryTermsCtx(ctx, terms, core.Strategy(strat), 3, 0); err != nil {
			t.Fatal(err)
		}
	})
	wire := testing.AllocsPerRun(200, func() {
		resp, err := c.Query(7, strat, 3, 0, terms)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("status %d", resp.Status)
		}
	})
	t.Logf("allocs/request: wire round trip %.1f, direct engine call %.1f, overhead %.1f",
		wire, base, wire-base)
	if wire > base+2 {
		t.Errorf("wire round trip = %.1f allocs/request, direct = %.1f; overhead %.1f exceeds the 2-alloc ratchet",
			wire, base, wire-base)
	}
}
