package wire

import (
	"bytes"
	"context"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/dewey"
	"xrefine/internal/refine"
	"xrefine/internal/server"
)

// TestWireAllocOverhead extends the PR-3 instrumentation ratchet to the
// full wire round trip: read frame → decode → query → encode → write,
// plus the client's send/recv. AllocsPerRun counts process-wide mallocs,
// so with a zero-alloc client (pre-sized buffers, reused Response) the
// measurement is the whole server path. The ratchet: a warm wire round
// trip may allocate at most 2 more times per request than calling
// Engine.QueryTermsCtx directly and releasing the response, as the codec
// does — slack for the decoded terms slice and
// the runtime's network-poll bookkeeping.
//
// It holds on two engines over one corpus. The index-only one has no
// document, so no snippet is rendered — the shape the mem gate measures.
// The document-backed one renders a snippet per result straight into the
// connection buffer, so snippets too must cost nothing on a warm
// connection.
func TestWireAllocOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	withDoc := core.NewFromDocument(doc, nil)
	t.Run("index-only", func(t *testing.T) {
		checkWireAllocOverhead(t, core.NewFromIndex(withDoc.Index(), nil), false)
	})
	t.Run("document", func(t *testing.T) {
		checkWireAllocOverhead(t, withDoc, true)
		// A root result's preview reads the corpus only up to its cut.
		root := refine.Match{ID: dewey.Root(), Type: doc.Root.Type}
		buf, ok := withDoc.AppendSnippetJSON(nil, root, snippetMax)
		if !ok {
			t.Fatal("document-backed engine rendered no root snippet")
		}
		if allocs := testing.AllocsPerRun(100, func() {
			buf, _ = withDoc.AppendSnippetJSON(buf[:0], root, snippetMax)
		}); allocs != 0 {
			t.Errorf("AppendSnippetJSON on the document root = %.1f allocs with a warm buffer, want 0", allocs)
		}
	})
}

// snippetMax is the server's snippet budget, in runes.
const snippetMax = 80

func checkWireAllocOverhead(t *testing.T, eng *core.Engine, snippets bool) {
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
		if got := bytes.Contains(resp.Payload, []byte(`"snippet": `)); got != snippets {
			t.Fatalf("payload carries snippets = %v, want %v", got, snippets)
		}
	}

	ctx := context.Background()
	results := 0
	base := testing.AllocsPerRun(200, func() {
		resp, err := eng.QueryTermsCtx(ctx, terms, core.Strategy(strat), 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		results = 0
		for _, q := range resp.Queries {
			results += len(q.Results)
		}
		resp.Release() // as the codec does once it has encoded
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
	t.Logf("allocs/request (%d results): wire round trip %.1f, direct engine call %.1f, overhead %.1f",
		results, wire, base, wire-base)
	if wire > base+2 {
		t.Errorf("wire round trip = %.1f allocs/request, direct = %.1f; overhead %.1f exceeds the 2-alloc ratchet",
			wire, base, wire-base)
	}
}
