package experiments

import (
	"fmt"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/eval"
	"xrefine/internal/rank"
	"xrefine/internal/searchfor"
)

// This file holds ablations beyond the paper's own tables, probing the
// design choices DESIGN.md calls out: the dissimilarity decay constant
// (the paper asserts "ρ=0.8 is a good choice" without printing the sweep),
// and the search-for confidence threshold θ behind Guideline 3.

// AblationDecay sweeps the Guideline-4 decay base and reports CG@1..4 —
// the experiment behind the paper's "ρ=0.8" assertion.
func AblationDecay(c *Corpus, numQueries int) ([]CGRow, error) {
	var variants []rankingVariant
	for _, p := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95} {
		m := rank.Default()
		m.Decay = p
		variants = append(variants, rankingVariant{Name: fmt.Sprintf("p=%.2g", p), Model: m})
	}
	return cgTable(c, variants, numQueries, 4)
}

// SearchForRow is one point of the search-for threshold ablation.
type SearchForRow struct {
	Theta float64
	// AvgCandidates is the mean number of search-for candidates per
	// query at this threshold.
	AvgCandidates float64
	// CG is CG@1..4 of the full ranking model.
	CG []float64
}

// AblationSearchFor sweeps the candidate threshold θ of Formula 1's
// candidate selection (Guideline 3 admits types with "comparable"
// confidence; θ quantifies comparable).
func AblationSearchFor(c *Corpus, numQueries int) ([]SearchForRow, error) {
	cases, err := c.Workload(datagen.WorkloadConfig{Seed: 4321, Queries: numQueries * 3})
	if err != nil {
		return nil, err
	}
	judges := eval.NewJudges(6, 99, 0.15)
	var rows []SearchForRow
	for _, theta := range []float64{0.5, 0.7, 0.8, 0.9, 0.99} {
		cfg := &core.Config{SearchFor: searchfor.Options{Threshold: theta}}
		eng := core.NewFromIndex(c.Index, cfg)
		var vectors [][]float64
		candTotal, candQueries := 0, 0
		used := 0
		for _, cs := range cases {
			if used >= numQueries {
				break
			}
			resp, err := query(eng, cs.Corrupted, 4)
			if err != nil {
				return nil, err
			}
			if !resp.NeedRefine || len(resp.Queries) == 0 {
				continue
			}
			used++
			candTotal += len(resp.SearchFor)
			candQueries++
			intended, err := intendedResults(c, cs.Intended)
			if err != nil {
				return nil, err
			}
			if len(intended) == 0 {
				continue
			}
			ranked := make([]map[string]bool, 0, len(resp.Queries))
			for _, q := range resp.Queries {
				set := map[string]bool{}
				for _, m := range q.Results {
					set[m.ID.String()] = true
				}
				ranked = append(ranked, set)
			}
			cg, err := eval.AverageCG(judges, intended, ranked, 4)
			if err != nil {
				return nil, err
			}
			vectors = append(vectors, cg)
		}
		row := SearchForRow{Theta: theta, CG: eval.MeanVectors(vectors)}
		if candQueries > 0 {
			row.AvgCandidates = float64(candTotal) / float64(candQueries)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
