package rules_test

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"xrefine/internal/datagen"
	"xrefine/internal/experiments"
	"xrefine/internal/index"
	"xrefine/internal/lexicon"
	"xrefine/internal/rules"
	"xrefine/internal/stem"
	"xrefine/internal/strdist"
	"xrefine/internal/xmltree"
)

// vocabulary is an index's sorted vocabulary with each word's length in
// runes and rune bag, and its words grouped by Porter stem in vocabulary
// order.
type vocabulary struct {
	ix     *index.Index
	words  []string
	runes  []int
	bags   []bag
	byStem map[string][]string
}

func newVocabulary(ix *index.Index) *vocabulary {
	v := &vocabulary{ix: ix, words: ix.Vocabulary(), byStem: map[string][]string{}}
	for _, w := range v.words {
		v.runes = append(v.runes, utf8.RuneCountInString(w))
		v.bags = append(v.bags, bagOf(w))
		v.byStem[stem.Stem(w)] = append(v.byStem[stem.Stem(w)], w)
	}
	return v
}

// bag counts a word's runes in 32 buckets by rune value.
type bag [32]uint8

func bagOf(w string) bag {
	var b bag
	for _, r := range w {
		b[r%32]++
	}
	return b
}

// within reports whether the bag distance — the larger of the runes one
// bag holds over the other and the reverse — is at most k. An insertion or
// deletion moves one count and a substitution at most two, one each way,
// so the bag distance never exceeds the Levenshtein distance.
func (a *bag) within(b *bag, k int) bool {
	over, under := 0, 0
	for i := range a {
		if d := int(a[i]) - int(b[i]); d > 0 {
			over += d
		} else {
			under -= d
		}
		if over > k || under > k {
			return false
		}
	}
	return true
}

// reference is Generate by brute force. Each rule class probes the whole
// sorted vocabulary, and spelling scores every word with Levenshtein and
// DamerauLevenshtein — all but those whose length or bag distance alone
// puts them more than two edits away: candidates within Levenshtein 2,
// scored by Damerau, closest then most frequent then alphabetical, three
// kept. The classes add in Generate's order into a Set, which keeps the
// cheaper of two rules with the same sides.
func reference(t *testing.T, v *vocabulary, lex *lexicon.Lexicon, q []string) []rules.Rule {
	t.Helper()
	ix, vocab := v.ix, v.words
	has := func(w string) bool {
		_, ok := slices.BinarySearch(vocab, w)
		return ok
	}
	s := rules.NewSet(0)
	add := func(op rules.Op, lhs, rhs []string, score float64, origin string) {
		r := rules.Rule{Op: op, LHS: slices.Clone(lhs), RHS: slices.Clone(rhs), Score: score, Origin: origin}
		if err := s.Add(r); err != nil {
			t.Fatalf("reference rule %v: %v", r, err)
		}
	}
	for width := 2; width <= 3; width++ {
		for i := 0; i+width <= len(q); i++ {
			if merged := strings.Join(q[i:i+width], ""); has(merged) {
				add(rules.OpMerge, q[i:i+width], []string{merged}, float64(width-1), "merge")
			}
		}
	}
	for _, k := range q {
		for cut := 2; cut <= len(k)-2; cut++ {
			if has(k[:cut]) && has(k[cut:]) {
				add(rules.OpSplit, []string{k}, []string{k[:cut], k[cut:]}, 1, "split")
			}
		}
	}
	for _, k := range q {
		if has(k) || len(k) <= 2 {
			continue
		}
		type cand struct {
			word       string
			dist, freq int
		}
		var cands []cand
		n, bk := utf8.RuneCountInString(k), bagOf(k)
		for i, w := range vocab {
			if v.runes[i] < n-2 || v.runes[i] > n+2 || !bk.within(&v.bags[i], 2) {
				continue
			}
			if d := strdist.Levenshtein(k, w); d >= 1 && d <= 2 {
				cands = append(cands, cand{w, strdist.DamerauLevenshtein(k, w), ix.ListLen(w)})
			}
		}
		slices.SortFunc(cands, func(a, b cand) int {
			if a.dist != b.dist {
				return a.dist - b.dist
			}
			if a.freq != b.freq {
				return b.freq - a.freq
			}
			return strings.Compare(a.word, b.word)
		})
		for _, c := range cands[:min(len(cands), 3)] {
			add(rules.OpSubstitute, []string{k}, []string{c.word}, float64(c.dist), "spelling")
		}
	}
	for _, k := range q {
		for _, w := range v.byStem[stem.Stem(k)] {
			if w != k {
				add(rules.OpSubstitute, []string{k}, []string{w}, 1, "stem")
			}
		}
	}
	for _, k := range q {
		for _, syn := range lex.Synonyms(k) {
			if other := syn.Other(k); has(other) {
				add(rules.OpSubstitute, []string{k}, []string{other}, syn.Score, "synonym")
			}
		}
	}
	for i, k := range q {
		if a, ok := lex.Expand(k); ok && !slices.ContainsFunc(a.Expansion, func(w string) bool { return !has(w) }) {
			add(rules.OpSubstitute, []string{k}, a.Expansion, 1, "acronym")
		}
		for _, a := range lex.Contract(k) {
			if i+len(a.Expansion) <= len(q) && slices.Equal(q[i:i+len(a.Expansion)], a.Expansion) && has(a.Short) {
				add(rules.OpSubstitute, q[i:i+len(a.Expansion)], []string{a.Short}, 1, "acronym")
			}
		}
	}
	return s.Rules()
}

func checkRules(t *testing.T, v *vocabulary, lex *lexicon.Lexicon, q []string) {
	t.Helper()
	s, err := rules.Generator{Lexicon: lex}.Generate(v.ix, q)
	if err != nil {
		t.Fatalf("Generate(%q): %v", q, err)
	}
	if got, want := s.Rules(), reference(t, v, lex, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("Generate(%q) =\n%v\nwant\n%v", q, got, want)
	}
}

// typo returns w after one to three random edits: substitutions,
// insertions, deletions and adjacent transpositions.
func typo(r *rand.Rand, w string) string {
	letters := []rune("abcdeilmnorstué日")
	rs := []rune(w)
	for k := 1 + r.Intn(3); k > 0; k-- {
		i := r.Intn(len(rs) + 1)
		switch c := letters[r.Intn(len(letters))]; r.Intn(4) {
		case 0:
			if i < len(rs) {
				rs[i] = c
			}
		case 1:
			rs = slices.Insert(rs, i, c)
		case 2:
			if i < len(rs) {
				rs = slices.Delete(rs, i, i+1)
			}
		default:
			if i+1 < len(rs) {
				rs[i], rs[i+1] = rs[i+1], rs[i]
			}
		}
	}
	if len(rs) == 0 {
		return w
	}
	return string(rs)
}

// syntheticIndex indexes n distinct words of two to five syllables (and
// the tags r and e), so that many words share prefixes; a few syllables are
// multi-byte. Word i occurs i%7+1 times, so frequencies break distance
// ties.
func syntheticIndex(t *testing.T, seed int64, n int) *index.Index {
	t.Helper()
	syl := strings.Fields("a ab ac al an ar ba be bi ca co da de di el en er es fa ga in is ka la le li ma me mo na ne no ra re ri sa se ta te ti to ul un ve é ün 日 ça")
	r := rand.New(rand.NewSource(seed))
	set := make(map[string]bool, n)
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; len(set) < n; {
		var w strings.Builder
		for k := 2 + r.Intn(4); k > 0; k-- {
			w.WriteString(syl[r.Intn(len(syl))])
		}
		if set[w.String()] {
			continue
		}
		set[w.String()] = true
		b.WriteString("<e>")
		b.WriteString(strings.Repeat(w.String()+" ", i%7+1))
		b.WriteString("</e>")
		i++
	}
	b.WriteString("</r>")
	doc, err := xmltree.ParseString(b.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(doc)
}

// TestGenerateMatchesReference is the differential of rule generation:
// Generate's rule set — op, sides, score, origin and order — equals the
// brute-force reference for every golden query and each of its keywords,
// and for 10 000 typo'd words against the golden vocabulary and against a
// synthetic 20 000-word one, the latter in two halves run in parallel
// (a tenth of each under -short).
func TestGenerateMatchesReference(t *testing.T) {
	lex := lexicon.Builtin()
	c, err := experiments.DBLPCorpus(0.2)
	if err != nil {
		t.Fatal(err)
	}
	golden := newVocabulary(c.Index)
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 909, Queries: 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range batch {
		checkRules(t, golden, lex, cs.Corrupted)
		for _, k := range cs.Corrupted {
			checkRules(t, golden, lex, []string{k})
		}
	}
	synthetic := newVocabulary(syntheticIndex(t, 3, 20000))
	for _, run := range []struct {
		name  string
		v     *vocabulary
		seed  int64
		words int
	}{
		{"golden", golden, 4, 10000},
		{"synthetic20000/a", synthetic, 5, 5000},
		{"synthetic20000/b", synthetic, 6, 5000},
	} {
		t.Run(run.name, func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(run.seed))
			if testing.Short() {
				run.words /= 10
			}
			for i := 0; i < run.words; i++ {
				checkRules(t, run.v, lex, []string{typo(r, run.v.words[r.Intn(len(run.v.words))])})
			}
		})
	}
}
