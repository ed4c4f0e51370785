package rules

import (
	"sort"

	"xrefine/internal/index"
	"xrefine/internal/lexicon"
	"xrefine/internal/stem"
	"xrefine/internal/strdist"
)

// derived holds the per-index vocabulary structures shared by every
// Generate call: a BK-tree for spelling neighbourhoods and the Porter-stem
// inverse map. Both depend only on the (immutable) vocabulary, so the index
// owns one instance, built on first use and freed with the index.
type derived struct {
	tree   *strdist.BKTree
	byStem map[string][]string
}

func derivedFor(ix *index.Index) *derived {
	return ix.VocabDerived(func() any {
		vocab := ix.Vocabulary()
		d := &derived{tree: strdist.NewBKTree(vocab), byStem: make(map[string][]string)}
		for _, w := range vocab {
			s := stem.Stem(w)
			d.byStem[s] = append(d.byStem[s], w)
		}
		return d
	}).(*derived)
}

// Generator derives the rule set relevant to one query from the indexed
// vocabulary and a lexicon. Every generated RHS keyword occurs in the data;
// rules whose replacement cannot match anything are useless to the DP and
// are never emitted.
type Generator struct {
	// Lexicon supplies synonym and acronym rules; nil disables both.
	Lexicon *lexicon.Lexicon
	// MaxEditDistance bounds spelling-correction search; 0 means 2.
	MaxEditDistance int
	// MaxSpellingCandidates caps corrections per query term; 0 means 3.
	MaxSpellingCandidates int
	// MinSplitPart is the minimum length of each part of a term split;
	// 0 means 2 (splitting off single letters produces junk).
	MinSplitPart int
	// SpellKnownTerms also proposes corrections for terms that already
	// occur in the data (off by default: a matching term is very likely
	// intended).
	SpellKnownTerms bool
	// DeleteCost prices term deletion in the produced set; 0 selects
	// DefaultDeleteCost.
	DeleteCost float64
	// Disable switches for ablation and experiments.
	NoMerge, NoSplit, NoSpelling, NoStemming, NoSynonyms, NoAcronyms bool
}

func (g Generator) maxED() int {
	if g.MaxEditDistance <= 0 {
		return 2
	}
	return g.MaxEditDistance
}

func (g Generator) maxSpell() int {
	if g.MaxSpellingCandidates <= 0 {
		return 3
	}
	return g.MaxSpellingCandidates
}

func (g Generator) minSplit() int {
	if g.MinSplitPart <= 0 {
		return 2
	}
	return g.MinSplitPart
}

// Generate builds the rule set relevant to query terms q against the index
// vocabulary.
func (g Generator) Generate(ix *index.Index, q []string) (*Set, error) {
	s := NewSet(g.DeleteCost)
	add := func(r Rule) error {
		return s.Add(r)
	}
	if !g.NoMerge {
		if err := g.mergeRules(ix, q, add); err != nil {
			return nil, err
		}
	}
	if !g.NoSplit {
		if err := g.splitRules(ix, q, add); err != nil {
			return nil, err
		}
	}
	if !g.NoSpelling {
		if err := g.spellingRules(ix, q, add); err != nil {
			return nil, err
		}
	}
	if !g.NoStemming {
		if err := g.stemmingRules(ix, q, add); err != nil {
			return nil, err
		}
	}
	if g.Lexicon != nil && !g.NoSynonyms {
		if err := g.synonymRules(ix, q, add); err != nil {
			return nil, err
		}
	}
	if g.Lexicon != nil && !g.NoAcronyms {
		if err := g.acronymRules(ix, q, add); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// mergeRules joins 2 or 3 adjacent query terms when the concatenation is a
// data term; each removed space costs 1 (paper rules r1/r2).
func (g Generator) mergeRules(ix *index.Index, q []string, add func(Rule) error) error {
	for width := 2; width <= 3; width++ {
		for i := 0; i+width <= len(q); i++ {
			lhs := q[i : i+width]
			merged := ""
			for _, k := range lhs {
				merged += k
			}
			if merged == "" || !ix.HasTerm(merged) {
				continue
			}
			r := Rule{
				Op:     OpMerge,
				LHS:    append([]string(nil), lhs...),
				RHS:    []string{merged},
				Score:  float64(width - 1),
				Origin: "merge",
			}
			if err := add(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// splitRules divides one query term into two data terms; one added space
// costs 1 (paper rule r7).
func (g Generator) splitRules(ix *index.Index, q []string, add func(Rule) error) error {
	minPart := g.minSplit()
	for _, k := range q {
		if len(k) < 2*minPart {
			continue
		}
		for cut := minPart; cut <= len(k)-minPart; cut++ {
			left, right := k[:cut], k[cut:]
			if !ix.HasTerm(left) || !ix.HasTerm(right) {
				continue
			}
			r := Rule{
				Op:     OpSplit,
				LHS:    []string{k},
				RHS:    []string{left, right},
				Score:  1,
				Origin: "split",
			}
			if err := add(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// spellingRules proposes vocabulary terms within a bounded edit distance of
// a query term; the distance is the dissimilarity (paper rule r5: ds = 2
// for "mecine" -> "machine"). Candidates come from a BK-tree neighbourhood
// probe (Levenshtein, a true metric); each hit is re-scored with the
// Damerau variant so an adjacent transposition costs one edit, not two.
func (g Generator) spellingRules(ix *index.Index, q []string, add func(Rule) error) error {
	tree := derivedFor(ix).tree
	maxED := g.maxED()
	for _, k := range q {
		if !g.SpellKnownTerms && ix.HasTerm(k) {
			continue
		}
		if len(k) <= 2 {
			continue // 1-2 letter terms match half the vocabulary
		}
		type cand struct {
			word string
			dist int
			freq int
		}
		var cands []cand
		for _, m := range tree.Within(k, maxED) {
			d := m.Distance
			if dd := strdist.DamerauLevenshtein(k, m.Word); dd < d {
				d = dd
			}
			cands = append(cands, cand{word: m.Word, dist: d, freq: ix.ListLen(m.Word)})
		}
		// Closest first; break distance ties toward frequent terms,
		// which are likelier intended.
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			if cands[i].freq != cands[j].freq {
				return cands[i].freq > cands[j].freq
			}
			return cands[i].word < cands[j].word
		})
		if len(cands) > g.maxSpell() {
			cands = cands[:g.maxSpell()]
		}
		for _, c := range cands {
			r := Rule{
				Op:     OpSubstitute,
				LHS:    []string{k},
				RHS:    []string{c.word},
				Score:  float64(c.dist),
				Origin: "spelling",
			}
			if err := add(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// stemmingRules substitutes a query term by data terms sharing its Porter
// stem at cost 1 (paper: "match" -> "matching").
func (g Generator) stemmingRules(ix *index.Index, q []string, add func(Rule) error) error {
	byStem := derivedFor(ix).byStem
	for _, k := range q {
		for _, w := range byStem[stem.Stem(k)] {
			if w == k {
				continue
			}
			r := Rule{
				Op:     OpSubstitute,
				LHS:    []string{k},
				RHS:    []string{w},
				Score:  1,
				Origin: "stem",
			}
			if err := add(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// synonymRules substitutes lexicon synonyms that occur in the data, scored
// by the lexicon's semantic distance (paper rule r3).
func (g Generator) synonymRules(ix *index.Index, q []string, add func(Rule) error) error {
	for _, k := range q {
		for _, syn := range g.Lexicon.Synonyms(k) {
			other := syn.Other(k)
			if !ix.HasTerm(other) {
				continue
			}
			r := Rule{
				Op:     OpSubstitute,
				LHS:    []string{k},
				RHS:    []string{other},
				Score:  syn.Score,
				Origin: "synonym",
			}
			if err := add(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// acronymRules expands short forms ("www" -> "world wide web") and
// contracts expansions present in the query back to their short form, both
// at cost 1 (paper rule r6 and its inverse).
func (g Generator) acronymRules(ix *index.Index, q []string, add func(Rule) error) error {
	for i, k := range q {
		if a, ok := g.Lexicon.Expand(k); ok {
			allPresent := true
			for _, t := range a.Expansion {
				if !ix.HasTerm(t) {
					allPresent = false
					break
				}
			}
			if allPresent {
				r := Rule{
					Op:     OpSubstitute,
					LHS:    []string{k},
					RHS:    append([]string(nil), a.Expansion...),
					Score:  1,
					Origin: "acronym",
				}
				if err := add(r); err != nil {
					return err
				}
			}
		}
		// Contraction: the expansion appears contiguously starting here.
		for _, a := range g.Lexicon.Contract(k) {
			if i+len(a.Expansion) > len(q) {
				continue
			}
			match := true
			for j, t := range a.Expansion {
				if q[i+j] != t {
					match = false
					break
				}
			}
			if !match || !ix.HasTerm(a.Short) {
				continue
			}
			r := Rule{
				Op:     OpSubstitute,
				LHS:    append([]string(nil), q[i:i+len(a.Expansion)]...),
				RHS:    []string{a.Short},
				Score:  1,
				Origin: "acronym",
			}
			if err := add(r); err != nil {
				return err
			}
		}
	}
	return nil
}
