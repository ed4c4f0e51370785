package refine_test

import (
	"testing"

	"xrefine/internal/experiments"
	"xrefine/internal/refine"
)

// TestReleaseReusesState: a released outcome's state is the one the next
// walk borrows, and that walk answers as a walk on a fresh state does —
// for every golden query, each run on the state the query before it
// released.
func TestReleaseReusesState(t *testing.T) {
	c := walkCorpus(t)
	queries := walkQueries(t, c)
	want := make([]string, len(queries))
	inputs := make([]refine.Input, len(queries))
	for i, terms := range queries {
		inputs[i] = prepareInput(t, c.Index, terms)
		out, err := refine.PartitionTopK(inputs[i], 3)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = walkSig(out) // never released: a fresh state each
	}
	var prev *refine.Scan
	for i := len(inputs) - 1; i >= 0; i-- {
		out, err := refine.PartitionTopK(inputs[i], 3)
		if err != nil {
			t.Fatal(err)
		}
		st := refine.StateOf(out)
		if prev != nil && st != prev {
			t.Fatalf("query %v: the walk did not reuse the state the walk before it released", queries[i])
		}
		if got := walkSig(out); got != want[i] {
			t.Errorf("query %v on a reused state:\n%s\nfresh state:\n%s", queries[i], got, want[i])
		}
		// A state over the cap is not taken back, and the next walk gets
		// another.
		kept := refine.Retained(st) <= refine.RetainBytes
		out.Release()
		if refine.StateOf(out) != nil || refine.Idle(st) != kept {
			t.Fatalf("query %v: released state idle = %v, want %v", queries[i], !kept, kept)
		}
		prev = nil
		if kept {
			prev = st
		}
	}
}

// TestReleaseDropsOversizedState: a query with a huge K over the most
// frequent terms of the full-scale corpus grows its state past the
// retention cap, and Release leaves such a state to the collector; one
// under the cap is taken back.
func TestReleaseDropsOversizedState(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full-scale corpus")
	}
	c, err := experiments.DBLPCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	freq := frequentTerms(c, 3)
	in := prepareInput(t, c.Index, freq)
	out, err := refine.PartitionTopK(in, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	big := refine.StateOf(out)
	if n := refine.Retained(big); n <= refine.RetainBytes {
		t.Fatalf("query %v at k=1<<20 holds %d bytes, not past the %d cap; pick a larger one", freq, n, refine.RetainBytes)
	}
	out.Release()
	if refine.Idle(big) {
		t.Errorf("a state of %d bytes was taken back", refine.Retained(big))
	}

	out, err = refine.PartitionTopK(prepareInput(t, c.Index, freq[:1]), 3)
	if err != nil {
		t.Fatal(err)
	}
	small := refine.StateOf(out)
	if n := refine.Retained(small); n > refine.RetainBytes {
		t.Fatalf("query %v holds %d bytes, past the cap", freq[:1], n)
	}
	out.Release()
	if !refine.Idle(small) {
		t.Error("a state under the cap was not taken back")
	}
}
