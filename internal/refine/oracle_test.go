package refine_test

// A brute-force conformance oracle for the result semantics every
// refinement algorithm promises: Definition 3.3 (SLCA — the smallest
// lowest common ancestors containing all keywords) filtered by Definition
// 3.4 (meaningfulness — the SLCA's type descends from an inferred
// search-for node type). The oracle recomputes both by O(n²) subtree
// walks with none of the engine's machinery — no inverted lists, no
// partitions, no Dewey arithmetic beyond ancestor tests — and the
// property-based test below requires the engine to agree with it on
// hundreds of random document/query pairs, for every strategy, with all
// strategies reporting the same verdict and top-k score profile.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/dewey"
	"xrefine/internal/refine"
	"xrefine/internal/searchfor"
	"xrefine/internal/testutil"
	"xrefine/internal/xmltree"
)

// subtreeContains reports whether any node in n's subtree carries term —
// the raw containment predicate underneath Definition 3.3.
func subtreeContains(n *xmltree.Node, term string) bool {
	for _, t := range n.Terms() {
		if t == term {
			return true
		}
	}
	for _, c := range n.Children {
		if subtreeContains(c, term) {
			return true
		}
	}
	return false
}

// naiveSLCA computes Definition 3.3 by brute force: every non-root node
// whose subtree contains all keywords (a CA), minus those with a proper
// descendant CA. The corpus root is excluded — it is a pure container,
// and a match only it witnesses spans partitions, which the paper's
// partition-scoped semantics (and the engine) reject.
func naiveSLCA(doc *xmltree.Document, terms []string) []*xmltree.Node {
	if len(terms) == 0 {
		return nil
	}
	var cas []*xmltree.Node
	doc.Walk(func(n *xmltree.Node) bool {
		if len(n.ID) < 2 {
			return true
		}
		for _, t := range terms {
			if !subtreeContains(n, t) {
				return true
			}
		}
		cas = append(cas, n)
		return true
	})
	var out []*xmltree.Node
	for _, a := range cas {
		lowest := true
		for _, b := range cas {
			if len(b.ID) > len(a.ID) && dewey.IsAncestorOrSelf(a.ID, b.ID) {
				lowest = false
				break
			}
		}
		if lowest {
			out = append(out, a)
		}
	}
	return out
}

// naiveMeaningful applies Definition 3.4 on top: keep the SLCAs whose
// node type the judge (built from the original query's search-for
// inference, exactly as the engine scores refined queries) accepts.
func naiveMeaningful(doc *xmltree.Document, terms []string, judge *searchfor.Judge) []*xmltree.Node {
	var out []*xmltree.Node
	for _, n := range naiveSLCA(doc, terms) {
		if judge.Meaningful(n.Type) {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return dewey.Compare(out[i].ID, out[j].ID) < 0 })
	return out
}

func nodesSig(ns []*xmltree.Node) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = n.ID.String() + ":" + n.Type.Path()
	}
	return strings.Join(parts, " ")
}

func matchesSig(ms []refine.Match) string {
	sorted := append([]refine.Match(nil), ms...)
	sort.Slice(sorted, func(i, j int) bool { return dewey.Compare(sorted[i].ID, sorted[j].ID) < 0 })
	parts := make([]string, len(sorted))
	for i, m := range sorted {
		parts[i] = m.ID.String() + ":" + m.Type.Path()
	}
	return strings.Join(parts, " ")
}

// scoreSig flattens the refine-or-not verdict and the (dSim, score)
// profile of the reported queries for cross-strategy comparison. The
// three strategies are exact top-k algorithms over the same refinement
// space, so their score profiles must agree — but distinct keyword sets
// can tie exactly, and which one a strategy keeps at a tie is an
// exploration-order artifact, so the keywords themselves are compared
// per strategy against the oracle instead.
func scoreSig(resp *core.Response) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "refine=%v degraded=%v/%s\n", resp.NeedRefine, resp.Degraded, resp.DegradedReason)
	for _, q := range resp.Queries {
		fmt.Fprintf(&sb, "dsim=%.9f score=%.9f orig=%v\n", q.DSim, q.Score, q.IsOriginal)
	}
	return sb.String()
}

// TestOracleConformance is the differential property test: across 250
// seeded random document/query pairs, every strategy's top-k output must
// match the brute-force oracle — the refine-or-not verdict, and the exact
// meaningful-SLCA result set of every reported query — and the three
// strategies must agree on the verdict and the top-k score profile.
func TestOracleConformance(t *testing.T) {
	const seeds = 250
	divergences := 0
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		doc, err := xmltree.ParseString(testutil.GenXML(r), nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		terms := testutil.GenTerms(r)
		eng := core.NewFromDocument(doc, &core.Config{DisableMetrics: true})

		_, cands, err := eng.Explore(terms, 3)
		if err != nil {
			t.Fatalf("seed %d: prepare: %v", seed, err)
		}
		judge := searchfor.NewJudge(cands)

		// Definition 3.4 verdict, shared by every strategy: refinement is
		// needed exactly when the original query has no meaningful SLCA.
		origOracle := naiveMeaningful(doc, refine.NewRQ(terms, 0).Keywords, judge)

		var ref string
		for _, st := range []core.Strategy{core.StrategyPartition, core.StrategySLE, core.StrategyStack} {
			resp, err := eng.QueryTerms(terms, st, 3)
			if err != nil {
				t.Fatalf("seed %d: query %v strategy %v: %v", seed, terms, st, err)
			}
			if resp.NeedRefine != (len(origOracle) == 0) {
				divergences++
				t.Errorf("seed %d: query %v strategy %v: NeedRefine=%v but oracle found %d meaningful SLCAs",
					seed, terms, st, resp.NeedRefine, len(origOracle))
			}

			// Every reported query — the original or a refinement — must
			// carry exactly the oracle's meaningful SLCAs for its keywords.
			for qi, q := range resp.Queries {
				want := nodesSig(naiveMeaningful(doc, q.Keywords, judge))
				if got := matchesSig(q.Results); got != want {
					divergences++
					t.Errorf("seed %d: query %v strategy %v result %d (%v):\n got  %s\n want %s",
						seed, terms, st, qi, q.Keywords, got, want)
				}
			}

			// Strategy independence at the same k: all three must report
			// the same verdict and the same top-k score profile.
			if sig := scoreSig(resp); ref == "" {
				ref = sig
			} else if sig != ref {
				divergences++
				t.Errorf("seed %d: query %v: strategy %v score profile diverged:\n got  %s\n want %s",
					seed, terms, st, sig, ref)
			}
		}
		if divergences > 10 {
			t.Fatalf("stopping after %d divergences", divergences)
		}
	}
	if divergences != 0 {
		t.Fatalf("%d divergences across %d seeds; the conformance bar is zero", divergences, seeds)
	}
}
