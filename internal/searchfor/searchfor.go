// Package searchfor infers the node type(s) a keyword query intends to
// search for (Section III-A of the paper) and provides the meaningful-SLCA
// predicate built on them (Definition 3.3): a matching result only makes
// sense to a user when it sits at or below an entity the query plausibly
// targets — otherwise even a technically correct SLCA (typically the
// document root) is noise.
package searchfor

import (
	"math"
	"sort"
	"sync"

	"xrefine/internal/index"
	"xrefine/internal/xmltree"
)

// Options tune Formula 1 and candidate selection.
type Options struct {
	// Reduction is the depth reduction factor r in Formula 1, in (0,1).
	// Deeper node types are progressively less plausible search targets.
	Reduction float64
	// Threshold keeps every type whose confidence is within
	// Threshold*max of the best type, modeling the paper's "multiple
	// desired search-for nodes with comparable confidence" (Guideline 3).
	Threshold float64
	// MaxCandidates caps the candidate list.
	MaxCandidates int
}

// DefaultOptions returns the values used throughout the evaluation:
// r = 0.8 (the decay the paper recommends), θ = 0.8, at most 3 candidates.
func DefaultOptions() Options {
	return Options{Reduction: 0.8, Threshold: 0.8, MaxCandidates: 3}
}

func (o *Options) withDefaults() Options {
	out := DefaultOptions()
	if o != nil {
		if o.Reduction > 0 && o.Reduction < 1 {
			out.Reduction = o.Reduction
		}
		if o.Threshold > 0 && o.Threshold <= 1 {
			out.Threshold = o.Threshold
		}
		if o.MaxCandidates > 0 {
			out.MaxCandidates = o.MaxCandidates
		}
	}
	return out
}

// Candidate is a node type with its search-for confidence C_for(T,Q).
type Candidate struct {
	Type       *xmltree.Type
	Confidence float64
}

// Confidence computes Formula 1 for a single type:
//
//	C_for(T,Q) = ln(1 + Σ_{k∈Q} f_k^T) * r^depth(T)
//
// The sum (rather than product) of XML document frequencies tolerates
// keywords that do not occur in the document at all — exactly the queries
// this system exists for.
func Confidence(ix *index.Index, terms []string, t *xmltree.Type, reduction float64) float64 {
	sum := 0
	for _, k := range terms {
		sum += ix.DF(k, t)
	}
	if sum == 0 {
		return 0
	}
	return math.Log(1+float64(sum)) * math.Pow(reduction, float64(t.Depth))
}

// Infer scores every node type and returns the candidate list L of
// Definition 3.3: types with comparable top confidence, best first. The
// root type is excluded — the paper calls the document root "a typical
// meaningless SLCA", and admitting it as a search-for node would make
// every result trivially meaningful.
func Infer(ix *index.Index, terms []string, opts *Options) []Candidate {
	o := opts.withDefaults()
	var scored []Candidate
	for _, t := range ix.Types.Types() {
		if t.Parent == nil {
			continue // root type
		}
		c := Confidence(ix, terms, t, o.Reduction)
		if c > 0 {
			scored = append(scored, Candidate{Type: t, Confidence: c})
		}
	}
	if len(scored) == 0 {
		return nil
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Confidence != scored[j].Confidence {
			return scored[i].Confidence > scored[j].Confidence
		}
		return scored[i].Type.Path() < scored[j].Type.Path()
	})
	cut := scored[0].Confidence * o.Threshold
	out := scored[:0]
	for _, c := range scored {
		if c.Confidence < cut || len(out) >= o.MaxCandidates {
			break
		}
		out = append(out, c)
	}
	return out
}

// Judge answers meaningfulness questions for one inferred candidate list.
// A Judge is safe for concurrent use: the parallel partition walk shares
// one judge across its workers.
type Judge struct {
	cands []Candidate
	// byID memoizes the per-type verdict: type IDs are dense and
	// queries probe the same few types over and over. The verdict for a
	// type never changes, so concurrent duplicate stores agree —
	// sync.Map's write-once read-many case.
	byID sync.Map
}

// NewJudge wraps a candidate list; an empty list yields a judge that calls
// nothing meaningful, which by Definition 3.4 forces refinement.
func NewJudge(cands []Candidate) *Judge {
	return &Judge{cands: cands}
}

// Candidates returns the wrapped candidate list, best first.
func (j *Judge) Candidates() []Candidate { return j.cands }

// Meaningful reports whether a node of type t is a self-or-descendant of a
// node of some candidate type — the type-level half of Definition 3.3. The
// caller pairs it with SLCA membership, which it already has.
func (j *Judge) Meaningful(t *xmltree.Type) bool {
	if v, ok := j.byID.Load(t.ID); ok {
		return v.(bool)
	}
	v := false
	for _, c := range j.cands {
		if t.HasPrefix(c.Type) {
			v = true
			break
		}
	}
	j.byID.Store(t.ID, v)
	return v
}
