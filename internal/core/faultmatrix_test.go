package core

import (
	"errors"
	"fmt"
	"testing"

	"xrefine/internal/datagen"
	"xrefine/internal/kvstore"
	"xrefine/internal/refine"
	"xrefine/internal/storage"
)

// TestFaultMatrix crosses storage failpoints with queries and budgets and
// requires every combination to land in exactly one of the allowed
// outcomes: a complete response, a correctly-flagged degraded response
// (budget configured), or a typed error rooted in storage.ErrInjected.
// Panics, hangs, and silently-wrong answers are the failures this matrix
// exists to catch. Each trial opens a fresh engine over dropped caches so
// the armed failpoint genuinely sits under the lazy index loads.
func TestFaultMatrix(t *testing.T) {
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 150, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	builder := NewFromDocument(doc, nil)
	faults := &storage.Faults{}
	store := kvstore.NewMemWithFaults(faults)
	defer store.Close()
	if err := builder.SaveIndex(store); err != nil {
		t.Fatal(err)
	}

	// Reference signatures from a clean engine: when a faulted trial does
	// return a complete response, it must be the correct one.
	queries := [][]string{
		{"database", "query"},
		{"databse", "quary"},
		{"keyword", "search", "xml"},
	}
	clean, err := Open(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		resp, err := queryTerms(clean, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = responseSig(resp)
	}

	faultArms := []struct {
		name string
		arm  func()
	}{
		{"none", func() {}},
		{"read-fail-1", func() { faults.FailReads(1) }},
		{"read-fail-3", func() { faults.FailReads(3) }},
		{"read-fail-10", func() { faults.FailReads(10) }},
		{"read-fail-50", func() { faults.FailReads(50) }},
	}
	budgets := []struct {
		name string
		cfg  *Config
	}{
		{"unbounded", nil},
		{"posting-budget", &Config{PostingBudget: 40}},
	}
	// The matrix must actually visit all three outcome classes, or it
	// proves nothing.
	var sawComplete, sawDegraded, sawInjected int
	for _, fa := range faultArms {
		for _, bd := range budgets {
			for qi, q := range queries {
				t.Run(fmt.Sprintf("%s/%s/q%d", fa.name, bd.name, qi), func(t *testing.T) {
					defer func() {
						faults.Clear()
						if v := recover(); v != nil {
							t.Fatalf("panic: %v", v)
						}
					}()
					store.DropCaches()
					faults.Clear()
					fa.arm()
					eng, err := Open(store, bd.cfg)
					if err != nil {
						// The failpoint hit during engine open: must be
						// the typed injection error, cleanly wrapped.
						if !errors.Is(err, storage.ErrInjected) {
							t.Fatalf("open error not typed: %v", err)
						}
						sawInjected++
						return
					}
					resp, err := queryTerms(eng, q, 3)
					if err != nil {
						if !errors.Is(err, storage.ErrInjected) {
							t.Fatalf("query error not typed: %v", err)
						}
						sawInjected++
						return
					}
					// A response came back: it must be internally valid.
					for _, rq := range resp.Queries {
						if len(rq.Keywords) == 0 {
							t.Fatal("response query with no keywords")
						}
						for _, m := range rq.Results {
							if m.ID == nil || m.Type == nil {
								t.Fatal("response result with nil ID or type")
							}
						}
					}
					switch {
					case resp.Degraded:
						if bd.cfg == nil {
							t.Fatal("degraded response without any budget configured")
						}
						if resp.DegradedReason != refine.DegradedPostings {
							t.Fatalf("DegradedReason = %q", resp.DegradedReason)
						}
						sawDegraded++
					default:
						// Complete response: must match the clean run
						// exactly — a fault may cost availability, never
						// correctness.
						if got := responseSig(resp); got != want[qi] {
							t.Fatalf("complete response diverged from clean run\ngot  %s\nwant %s", got, want[qi])
						}
						sawComplete++
					}
				})
			}
		}
	}
	if sawComplete == 0 || sawDegraded == 0 || sawInjected == 0 {
		t.Fatalf("matrix lost an outcome class: complete=%d degraded=%d injected=%d",
			sawComplete, sawDegraded, sawInjected)
	}
}
