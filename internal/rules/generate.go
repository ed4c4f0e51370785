package rules

import (
	"slices"
	"strings"

	"xrefine/internal/index"
	"xrefine/internal/lexicon"
	"xrefine/internal/stem"
	"xrefine/internal/strdist"
)

// derived holds the Porter-stem inverse map shared by every Generate call.
// It depends only on the (immutable) vocabulary, so the index owns one
// instance, built on first use and freed with the index.
type derived struct {
	byStem map[string][]string
}

func derivedFor(ix *index.Index) *derived {
	return ix.VocabDerived(func() any {
		d := &derived{byStem: make(map[string][]string)}
		for _, w := range ix.Vocabulary() {
			s := stem.Stem(w)
			d.byStem[s] = append(d.byStem[s], w)
		}
		return d
	}).(*derived)
}

const (
	// maxEditDistance bounds the spelling-correction search.
	maxEditDistance = 2
	// maxSpellingCandidates caps the corrections of one query term.
	maxSpellingCandidates = 3
	// minSplitPart is the shortest part of a term split (splitting off
	// single letters produces junk).
	minSplitPart = 2
)

// Generator derives the rule set relevant to one query from the indexed
// vocabulary and a lexicon. Every generated RHS keyword occurs in the data;
// rules whose replacement cannot match anything are useless to the DP and
// are never emitted.
type Generator struct {
	// Lexicon supplies synonym and acronym rules; nil disables both.
	Lexicon *lexicon.Lexicon
}

// Generate builds the rule set relevant to query terms q against the index
// vocabulary. Term deletion costs DefaultDeleteCost.
func (g Generator) Generate(ix *index.Index, q []string) (*Set, error) {
	s := NewSet(DefaultDeleteCost)
	if err := mergeRules(ix, q, s.Add); err != nil {
		return nil, err
	}
	if err := splitRules(ix, q, s.Add); err != nil {
		return nil, err
	}
	if err := spellingRules(ix, q, s.Add); err != nil {
		return nil, err
	}
	if err := stemmingRules(ix, q, s.Add); err != nil {
		return nil, err
	}
	if err := g.synonymRules(ix, q, s.Add); err != nil {
		return nil, err
	}
	if err := g.acronymRules(ix, q, s.Add); err != nil {
		return nil, err
	}
	return s, nil
}

// mergeRules joins 2 or 3 adjacent query terms when the concatenation is a
// data term; each removed space costs 1 (paper rules r1/r2).
func mergeRules(ix *index.Index, q []string, add func(Rule) error) error {
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
func splitRules(ix *index.Index, q []string, add func(Rule) error) error {
	for _, k := range q {
		for cut := minSplitPart; cut <= len(k)-minSplitPart; cut++ {
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
// for "mecine" -> "machine"). Candidates are the words within Levenshtein
// distance maxEditDistance, found by one walk of the index's sorted
// vocabulary; each is scored with the restricted Damerau distance, so an
// adjacent transposition costs one edit, not two.
func spellingRules(ix *index.Index, q []string, add func(Rule) error) error {
	vocab := ix.Vocabulary()
	var buf [16]strdist.Match
	for _, k := range q {
		// Known terms are very likely intended, and 1-2 letter terms
		// match half the vocabulary.
		if ix.HasTerm(k) || len(k) <= 2 {
			continue
		}
		cands := strdist.Within(buf[:0], vocab, k, maxEditDistance)
		// Closest first; break distance ties toward frequent terms,
		// which are likelier intended.
		slices.SortFunc(cands, func(a, b strdist.Match) int {
			if a.Damerau != b.Damerau {
				return a.Damerau - b.Damerau
			}
			if fa, fb := ix.ListLen(a.Word), ix.ListLen(b.Word); fa != fb {
				return fb - fa
			}
			return strings.Compare(a.Word, b.Word)
		})
		for _, c := range cands[:min(len(cands), maxSpellingCandidates)] {
			r := Rule{
				Op:     OpSubstitute,
				LHS:    []string{k},
				RHS:    []string{c.Word},
				Score:  float64(c.Damerau),
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
func stemmingRules(ix *index.Index, q []string, add func(Rule) error) error {
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
	if g.Lexicon == nil {
		return nil
	}
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
	if g.Lexicon == nil {
		return nil
	}
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
