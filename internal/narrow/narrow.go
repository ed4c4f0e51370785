// Package narrow implements the extension the paper's conclusion names as
// future work: refining a query that has *too many* matching results. It
// is the mirror image of the repair pipeline — instead of relaxing or
// rewriting a failing query, it tightens a flooding one by adding
// discriminative keywords that co-occur with the query inside the
// search-for subtrees, so every suggestion is again guaranteed to have
// meaningful matching results (now fewer of them).
//
// Candidate terms are mined from the actual result subtrees, scored by
//
//	support(t) * Imp_t(Q,T)
//
// — how many result subtrees contain the term, times the same
// discriminativeness measure (Formula 3) the ranking model uses — and each
// surviving suggestion is verified by running the narrowed query.
package narrow

import (
	"context"
	"errors"
	"sort"

	"xrefine/internal/index"
	"xrefine/internal/rank"
	"xrefine/internal/refine"
	"xrefine/internal/searchfor"
	"xrefine/internal/xmltree"
)

// Options tune narrowing.
type Options struct {
	// MaxResults is the threshold above which a query counts as too
	// broad; 0 means 50.
	MaxResults int
	// TopK bounds the number of suggestions; 0 means 3.
	TopK int
	// TargetResults biases scoring toward suggestions whose result
	// count lands near this; 0 means 10.
	TargetResults int
	// SampleResults caps how many result subtrees are mined for
	// candidate terms; 0 means 200.
	SampleResults int
	// MaxCandidates caps the number of candidate terms that get
	// verified with a real query; 0 means 12.
	MaxCandidates int
}

func (o *Options) withDefaults() Options {
	out := Options{MaxResults: 50, TopK: 3, TargetResults: 10, SampleResults: 200, MaxCandidates: 12}
	if o != nil {
		if o.MaxResults > 0 {
			out.MaxResults = o.MaxResults
		}
		if o.TopK > 0 {
			out.TopK = o.TopK
		}
		if o.TargetResults > 0 {
			out.TargetResults = o.TargetResults
		}
		if o.SampleResults > 0 {
			out.SampleResults = o.SampleResults
		}
		if o.MaxCandidates > 0 {
			out.MaxCandidates = o.MaxCandidates
		}
	}
	return out
}

// Suggestion is one narrowing proposal: the original query plus added
// keywords, with its (verified) meaningful results.
type Suggestion struct {
	// Keywords is the full narrowed query, sorted.
	Keywords []string
	// Added lists the appended keywords.
	Added []string
	// Results are the narrowed query's meaningful SLCAs.
	Results []refine.Match
	// Score orders suggestions: higher is better.
	Score float64
}

// Outcome reports a narrowing run.
type Outcome struct {
	// TooBroad is false when the original query's result count is
	// already within MaxResults; Suggestions is then empty.
	TooBroad bool
	// OriginalResults is the original query's meaningful result count.
	OriginalResults int
	// Suggestions holds narrowing proposals, best first.
	Suggestions []Suggestion
}

// ErrNeedsDocument is returned when narrowing is invoked without the
// source document: candidate mining walks result subtrees, which the
// inverted index alone cannot enumerate.
var ErrNeedsDocument = errors.New("narrow: narrowing requires the source document")

// Narrow analyses query terms over the document and proposes narrowed
// queries when the original floods. Every query it runs observes ctx: once
// ctx is done, Narrow returns its error.
func Narrow(ctx context.Context, doc *xmltree.Document, ix *index.Index, terms []string, judge *searchfor.Judge, opts *Options) (*Outcome, error) {
	if doc == nil {
		return nil, ErrNeedsDocument
	}
	if len(terms) == 0 {
		return nil, errors.New("narrow: empty query")
	}
	o := opts.withDefaults()
	in := refine.Input{Index: ix, Query: terms, Judge: judge, Budget: refine.NewBudget(ctx, 0)}
	base, err := refine.Original(in)
	if err != nil {
		return nil, err
	}
	out := &Outcome{OriginalResults: len(base)}
	if len(base) <= o.MaxResults {
		return out, nil
	}
	out.TooBroad = true

	// Mine candidate terms from a sample of result subtrees.
	inQuery := make(map[string]bool, len(terms))
	for _, t := range terms {
		inQuery[t] = true
	}
	support := map[string]int{}
	sample := base
	if len(sample) > o.SampleResults {
		sample = sample[:o.SampleResults]
	}
	for _, m := range sample {
		n, ok := doc.NodeByID(m.ID)
		if !ok {
			continue
		}
		seen := map[string]bool{}
		var rec func(x *xmltree.Node)
		rec = func(x *xmltree.Node) {
			for _, w := range x.Terms() {
				if !inQuery[w] && !seen[w] {
					seen[w] = true
					support[w]++
				}
			}
			for _, ch := range x.Children {
				rec(ch)
			}
		}
		rec(n)
	}
	// Score candidates: frequent across results (so the narrowed query
	// still matches plenty) yet discriminative in the data (so it
	// actually narrows). Terms present in every result cannot narrow.
	cands := judge.Candidates()
	type scored struct {
		term  string
		score float64
	}
	var ranked []scored
	for term, sup := range support {
		if sup >= len(sample) {
			continue
		}
		imp := 0.0
		for _, c := range cands {
			imp += c.Confidence * rank.ImpK(ix, term, c.Type)
		}
		if imp == 0 {
			continue
		}
		ranked = append(ranked, scored{term: term, score: float64(sup) * imp})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].term < ranked[j].term
	})
	if len(ranked) > o.MaxCandidates {
		ranked = ranked[:o.MaxCandidates]
	}

	// Verify each candidate by running the narrowed query for real.
	for _, c := range ranked {
		narrowed := append(append([]string(nil), terms...), c.term)
		nin := in
		nin.Query = narrowed
		res, err := refine.Original(nin)
		if err != nil {
			return nil, err
		}
		if len(res) == 0 || len(res) >= len(base) {
			continue
		}
		out.Suggestions = append(out.Suggestions, Suggestion{
			Keywords: refine.NewRQ(narrowed, 0).Keywords,
			Added:    []string{c.term},
			Results:  res,
			Score:    c.score * proximity(len(res), o.TargetResults),
		})
	}
	sort.SliceStable(out.Suggestions, func(i, j int) bool {
		return out.Suggestions[i].Score > out.Suggestions[j].Score
	})
	if len(out.Suggestions) > o.TopK {
		out.Suggestions = out.Suggestions[:o.TopK]
	}
	return out, nil
}

// proximity maps a result count onto (0,1], peaking at the target count:
// a suggestion that narrows 500 results to 8 beats one that narrows to 1
// or to 400.
func proximity(got, target int) float64 {
	if got <= 0 {
		return 0
	}
	ratio := float64(got) / float64(target)
	if ratio > 1 {
		ratio = 1 / ratio
	}
	return ratio
}
