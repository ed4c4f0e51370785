// Package rules models refinement rules (Definition 3.5 of the paper) and
// generates the rule set relevant to a query. A rule rewrites a contiguous
// keyword sequence of the query (its LHS) into a keyword set that exists in
// the data (its RHS) at a dissimilarity cost ds_r; term deletion is the
// implicit fifth operation, priced by the set-wide DeleteCost.
//
// The paper obtains rules from human annotators, WordNet and query-log
// mining. This package derives them automatically against the indexed
// vocabulary: merges and splits from vocabulary membership, spelling
// corrections from bounded Damerau-Levenshtein search, synonym/acronym
// substitutions from the lexicon, and stemming substitutions from Porter
// stem equivalence — one generator per rule class of Table II.
package rules

import (
	"fmt"
	"slices"
	"strings"

	"xrefine/internal/tokenize"
)

// Op is a refinement operation (Section III-B).
type Op int

const (
	// OpMerge joins adjacent query terms mistakenly split by the user
	// ("on line" -> "online").
	OpMerge Op = iota
	// OpSplit divides a term mistakenly concatenated ("online" -> "on
	// line").
	OpSplit
	// OpSubstitute replaces terms: spelling correction, synonym,
	// acronym expansion/contraction, stemming variant.
	OpSubstitute
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpMerge:
		return "merge"
	case OpSplit:
		return "split"
	case OpSubstitute:
		return "substitute"
	}
	return "unknown"
}

// Rule is one refinement rule S1 ->op S2 with dissimilarity ds_r.
type Rule struct {
	Op Op
	// LHS is the contiguous keyword sequence of the original query the
	// rule consumes.
	LHS []string
	// RHS is the keyword set the rule produces; every RHS keyword is
	// guaranteed by the generator to occur in the indexed data.
	RHS []string
	// Score is the dissimilarity ds_r (> 0).
	Score float64
	// Origin records which generator produced the rule, for diagnostics
	// and experiment reporting.
	Origin string
}

// String renders the rule in the paper's arrow notation.
func (r Rule) String() string {
	return fmt.Sprintf("%s ->%s %s (ds=%g)", strings.Join(r.LHS, ","), r.Op, strings.Join(r.RHS, ","), r.Score)
}

// DefaultDeleteCost is the deletion dissimilarity used throughout the
// evaluation; the paper assigns ds_r = 2 for a single term deletion,
// keeping it strictly greater than the other operations' unit cost.
const DefaultDeleteCost = 2.0

// Set is a collection of rules plus the deletion cost, indexed for the
// dynamic program of Section V: rules are looked up by the last keyword of
// their LHS, because the DP extends prefixes of the query one keyword at a
// time.
type Set struct {
	DeleteCost float64
	rules      []Rule
	byLast     map[string][]int
}

// NewSet returns an empty rule set; deleteCost <= 0 selects the default.
func NewSet(deleteCost float64) *Set {
	if deleteCost <= 0 {
		deleteCost = DefaultDeleteCost
	}
	return &Set{DeleteCost: deleteCost, byLast: make(map[string][]int)}
}

// Add validates and inserts a rule. Duplicate (LHS, RHS) pairs keep the
// cheaper score.
func (s *Set) Add(r Rule) error {
	if len(r.LHS) == 0 || len(r.RHS) == 0 {
		return fmt.Errorf("rules: empty side in %s", r)
	}
	if r.Score <= 0 {
		return fmt.Errorf("rules: non-positive score in %s", r)
	}
	for _, k := range append(append([]string(nil), r.LHS...), r.RHS...) {
		if !tokenize.Term(k) {
			return fmt.Errorf("rules: %q is not a normalized term in %s", k, r)
		}
	}
	if sameSet(r.LHS, r.RHS) {
		return fmt.Errorf("rules: identity rule %s", r)
	}
	for _, i := range s.byLast[r.LHS[len(r.LHS)-1]] {
		old := &s.rules[i]
		if slices.Equal(old.LHS, r.LHS) && sameSet(old.RHS, r.RHS) {
			if r.Score < old.Score {
				old.Score = r.Score
				old.Origin = r.Origin
				old.Op = r.Op
			}
			return nil
		}
	}
	s.rules = append(s.rules, r)
	last := r.LHS[len(r.LHS)-1]
	s.byLast[last] = append(s.byLast[last], len(s.rules)-1)
	return nil
}

// ByLastLHS returns the positions, for Rule, of every rule whose LHS ends
// with keyword k, in insertion order — the DP's lookup shape. The slice is
// a view of the set's index, not a copy: callers must not mutate it.
func (s *Set) ByLastLHS(k string) []int { return s.byLast[k] }

// Rule returns the stored rule at position i, not a copy. The pointer
// stays valid until the next Add.
func (s *Set) Rule(i int) *Rule { return &s.rules[i] }

// Rules returns all rules in insertion order.
func (s *Set) Rules() []Rule { return append([]Rule(nil), s.rules...) }

// Len returns the number of rules.
func (s *Set) Len() int { return len(s.rules) }

// NewKeywords returns every RHS keyword that is not a keyword of q, in
// sorted order — the getNewKeywords(Q) of Algorithms 1-3.
func (s *Set) NewKeywords(q []string) []string {
	var out []string
	for _, r := range s.rules {
		for _, k := range r.RHS {
			if !slices.Contains(q, k) {
				out = append(out, k)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[string]int, len(a))
	for _, x := range a {
		m[x]++
	}
	for _, x := range b {
		m[x]--
		if m[x] < 0 {
			return false
		}
	}
	return true
}
