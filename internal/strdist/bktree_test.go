package strdist

import (
	"math/rand"
	"sort"
	"testing"
)

func TestBKTreeBasics(t *testing.T) {
	words := []string{"database", "databases", "databse", "keyword", "keywords", "search"}
	tree := NewBKTree(words)
	if tree.Len() != len(words) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(words))
	}
	// duplicates ignored
	tree.Add("database")
	tree.Add("")
	if tree.Len() != len(words) {
		t.Fatalf("duplicate changed size to %d", tree.Len())
	}
	got := tree.Within("databse", 1)
	found := map[string]int{}
	for _, m := range got {
		found[m.Word] = m.Distance
	}
	if found["database"] != 1 {
		t.Errorf("database not found at distance 1: %v", got)
	}
	if _, ok := found["keyword"]; ok {
		t.Error("keyword within 1 of databse?!")
	}
	// the query word itself is excluded even when stored
	for _, m := range tree.Within("database", 2) {
		if m.Word == "database" {
			t.Error("query word returned")
		}
	}
}

func TestBKTreeEmptyAndDegenerate(t *testing.T) {
	var empty BKTree
	if got := empty.Within("x", 2); got != nil {
		t.Errorf("empty tree returned %v", got)
	}
	one := NewBKTree([]string{"solo"})
	if got := one.Within("solo", 0); got != nil {
		t.Errorf("max 0 returned %v", got)
	}
	if got := one.Within("sole", 1); len(got) != 1 || got[0].Word != "solo" {
		t.Errorf("single-node query = %v", got)
	}
}

// Property: Within agrees exactly with a linear Levenshtein scan on random
// vocabularies, for all query words and bounds.
// TestPropertyBKTreeAgainstScan is Within's differential: its words and
// the distances it reports, computed in buffers reused across the nodes
// it visits, equal a scan with Levenshtein. Words mix multi-byte runes,
// and one in ten is longer than the buffers Within starts with.
func TestPropertyBKTreeAgainstScan(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	letters := []rune("abcdé日")
	randWordN := func() string {
		n := 1 + r.Intn(7)
		if r.Intn(10) == 0 {
			n += 33
		}
		w := make([]rune, n)
		for i := range w {
			w[i] = letters[r.Intn(len(letters))]
		}
		return string(w)
	}
	for trial := 0; trial < 40; trial++ {
		vocabSet := map[string]bool{}
		for i := 0; i < 120; i++ {
			vocabSet[randWordN()] = true
		}
		var vocab []string
		for w := range vocabSet {
			vocab = append(vocab, w)
		}
		tree := NewBKTree(vocab)
		if tree.Len() != len(vocab) {
			t.Fatalf("trial %d: size %d != %d", trial, tree.Len(), len(vocab))
		}
		for probe := 0; probe < 20; probe++ {
			q := randWordN()
			max := 1 + r.Intn(3)
			var want []string
			for _, w := range vocab {
				if d := Levenshtein(q, w); d >= 1 && d <= max {
					want = append(want, w)
				}
			}
			var got []string
			for _, m := range tree.Within(q, max) {
				if m.Distance != Levenshtein(q, m.Word) {
					t.Fatalf("trial %d: wrong reported distance for %q/%q", trial, q, m.Word)
				}
				got = append(got, m.Word)
			}
			sort.Strings(want)
			sort.Strings(got)
			if len(want) != len(got) {
				t.Fatalf("trial %d: Within(%q,%d) = %v, want %v", trial, q, max, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("trial %d: Within(%q,%d) = %v, want %v", trial, q, max, got, want)
				}
			}
		}
	}
}

func BenchmarkBKTreeWithin(b *testing.B) {
	vocab := randomVocab(rand.New(rand.NewSource(3)), 20000)
	tree := NewBKTree(vocab)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree.Within(vocab[i%len(vocab)], 2)
	}
}

func BenchmarkLinearScanWithin(b *testing.B) {
	vocab := randomVocab(rand.New(rand.NewSource(3)), 20000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := vocab[i%len(vocab)]
		for _, w := range vocab {
			DamerauLevenshteinWithin(q, w, 2)
		}
	}
}

// randomVocab returns n random words of 3 to 11 letters from a–j.
func randomVocab(r *rand.Rand, n int) []string {
	letters := []rune("abcdefghij")
	vocab := make([]string, n)
	for i := range vocab {
		w := make([]rune, 3+r.Intn(9))
		for j := range w {
			w[j] = letters[r.Intn(len(letters))]
		}
		vocab[i] = string(w)
	}
	return vocab
}

// TestBKTreeWithinAllocsFlat: a Within call allocates its query's runes,
// one rune buffer, one row and its stack, whatever the number of nodes it
// visits. The query shares no letter with the vocabulary, so it has no
// match at distance 2 and the answer allocates nothing; the allocations
// then stay the same from 290 words to 20 000, although the larger tree
// visits far more nodes.
func TestBKTreeWithinAllocsFlat(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var allocs []float64
	for _, n := range []int{290, 20000} {
		tree := NewBKTree(randomVocab(r, n))
		if got := tree.Within("klmnopq", 2); len(got) != 0 {
			t.Fatalf("%d words: %v within 2 of a word in other letters", n, got)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() { tree.Within("klmnopq", 2) }))
	}
	t.Logf("allocations per Within: %v at 290 and 20 000 words", allocs)
	if allocs[1] != allocs[0] {
		t.Errorf("Within allocates %.0f times at 20 000 words, %.0f at 290", allocs[1], allocs[0])
	}
}
