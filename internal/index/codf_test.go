package index_test

import (
	"testing"

	"xrefine/internal/datagen"
	"xrefine/internal/index"
	"xrefine/internal/xmltree"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// codfCorpus is a generated bibliography large enough that its most
// frequent lists span several blocks.
func codfCorpus(t *testing.T) (*xmltree.Document, *index.Index) {
	t.Helper()
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return doc, index.Build(doc)
}

// TestCoDFMatchesBruteForce holds the two-cursor merge to a count from
// fully decoded postings: for every term pair and every type, the number
// of T-typed roots above postings of both terms.
func TestCoDFMatchesBruteForce(t *testing.T) {
	doc, ix := codfCorpus(t)
	vocab := ix.Vocabulary()
	types := doc.Types.Types()
	// roots[term][type ID] is the set of T-typed roots above the term's
	// postings.
	roots := make(map[string][]map[string]bool, len(vocab))
	multiBlock := false
	for _, term := range vocab {
		l, err := ix.List(term)
		if err != nil {
			t.Fatal(err)
		}
		multiBlock = multiBlock || l.BlockCount() > 1
		sets := make([]map[string]bool, len(types))
		for _, ty := range types {
			sets[ty.ID] = map[string]bool{}
		}
		for _, p := range l.Postings() {
			for ty := p.Type; ty != nil; ty = ty.Parent {
				sets[ty.ID][p.ID[:ty.Depth+1].String()] = true
			}
		}
		roots[term] = sets
	}
	if !multiBlock {
		t.Fatal("corpus too small: no list spans two blocks")
	}
	for i, a := range vocab {
		for _, b := range vocab[i:] {
			for _, ty := range types {
				want := 0
				for r := range roots[a][ty.ID] {
					if roots[b][ty.ID][r] {
						want++
					}
				}
				got, err := ix.CoDF(a, b, ty)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("CoDF(%q, %q, %s) = %d, brute force %d", a, b, ty.Path(), got, want)
				}
			}
		}
	}
}

// TestCoDFAllocs bounds CoDF at a constant number of
// allocations whatever the lists' lengths: the merge reads both lists
// through pooled cursors and copies roots into two reused buffers.
func TestCoDFAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	doc, ix := codfCorpus(t)
	var short, long []string
	for _, term := range ix.Vocabulary() {
		l, err := ix.List(term)
		if err != nil {
			t.Fatal(err)
		}
		switch n := l.BlockCount(); {
		case n == 1 && len(short) < 2:
			short = append(short, term)
		case n > 1 && len(long) < 2:
			long = append(long, term)
		}
	}
	if len(short) < 2 || len(long) < 2 {
		t.Fatalf("corpus lacks two single-block and two multi-block lists: %v %v", short, long)
	}
	for _, tc := range []struct {
		name string
		a, b string
	}{
		{"short", short[0], short[1]},
		{"long", long[0], long[1]},
		{"mixed", short[0], long[0]},
	} {
		for _, ty := range doc.Types.Types() {
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := ix.CoDF(tc.a, tc.b, ty); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 4 {
				t.Errorf("%s: CoDF(%q, %q, %s) = %.1f allocs, want <= 4", tc.name, tc.a, tc.b, ty.Path(), allocs)
			}
		}
	}
}

// TestSeekAllocs: the one-block seeks delta.go makes — SeekGE and
// InSubtree — decode into pooled cursor scratch and allocate nothing,
// on lists of one block and of many.
func TestSeekAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	_, ix := codfCorpus(t)
	for _, term := range ix.Vocabulary() {
		l, err := ix.List(term)
		if err != nil {
			t.Fatal(err)
		}
		ps := l.Postings()
		mid := ps[len(ps)/2].ID
		root := mid[:min(2, len(mid))]
		allocs := testing.AllocsPerRun(20, func() {
			l.SeekGE(mid)
			l.InSubtree(root)
		})
		if allocs != 0 {
			t.Fatalf("SeekGE/InSubtree on %q (%d blocks) allocated %.1f times, want 0", term, l.BlockCount(), allocs)
		}
	}
}
