package experiments

import (
	"fmt"
	"sort"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/eval"
	"xrefine/internal/rank"
	"xrefine/internal/refine"
	"xrefine/internal/searchfor"
)

// CGRow is one row of the effectiveness tables: a ranking-model variant
// with its averaged CG@1..CG@depth vector.
type CGRow struct {
	Model string
	CG    []float64
}

// rankingVariant pairs a variant name with its model.
type rankingVariant struct {
	Name  string
	Model rank.Model
}

// RS variants of Table IX: the full model and the four guideline ablations.
func rsVariants() []rankingVariant {
	base := rank.Default()
	rs1 := base
	rs1.NoG1 = true
	rs2 := base
	rs2.NoG2 = true
	rs3 := base
	rs3.NoG3 = true
	rs4 := base
	rs4.NoG4 = true
	return []rankingVariant{
		{"RS0", base}, {"RS1", rs1}, {"RS2", rs2}, {"RS3", rs3}, {"RS4", rs4},
	}
}

// (α, β) variants of Table X.
func weightVariants() []rankingVariant {
	mk := func(a, b float64) rank.Model {
		m := rank.Default()
		m.Alpha, m.Beta = a, b
		return m
	}
	return []rankingVariant{
		{"[1,1]", mk(1, 1)},
		{"[1,0]", mk(1, 0)},
		{"[0,1]", mk(0, 1)},
		{"[2,1]", mk(2, 1)},
		{"[1,2]", mk(1, 2)},
	}
}

// evalQuery is one effectiveness-pool entry: a corrupted query, its
// explored candidates, and the intended query's result identity set.
type evalQuery struct {
	cs       datagen.Case
	outcome  *refine.TopKOutcome
	cands    []searchfor.Candidate
	intended map[string]bool
}

// effectivenessPool selects workload queries that (a) need refinement and
// (b) have at least minCandidates refined-query candidates — the paper's
// "50 queries that have no meaningful results ... and have at least 4
// possible RQ candidates". Each query's raw top-2K, before ranking, is
// captured by the engine's explorer so the tables can re-rank it under
// every model variant.
func effectivenessPool(c *Corpus, want, minCandidates int) ([]evalQuery, error) {
	cases, err := c.Workload(datagen.WorkloadConfig{Seed: 4321, Queries: want * 4})
	if err != nil {
		return nil, err
	}
	var out *refine.TopKOutcome
	eng := core.NewWithExplorer(c.Index, nil, func(in refine.Input, k int) (*refine.TopKOutcome, error) {
		var err error
		out, err = refine.PartitionTopK(in, k)
		return out, err
	})
	var pool []evalQuery
	for _, cs := range cases {
		if len(pool) >= want {
			break
		}
		resp, err := query(eng, cs.Corrupted, 4)
		if err != nil {
			return nil, err
		}
		if !resp.NeedRefine || len(out.Candidates) < minCandidates {
			continue
		}
		intended, err := intendedResults(c, cs.Intended)
		if err != nil {
			return nil, err
		}
		if len(intended) == 0 {
			continue
		}
		pool = append(pool, evalQuery{cs: cs, outcome: out, cands: resp.SearchFor, intended: intended})
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("experiments: no refinable queries with >= %d candidates", minCandidates)
	}
	return pool, nil
}

// intendedResults runs the intended (clean) query and returns its result
// identity set — the ground truth the simulated judges score against.
func intendedResults(c *Corpus, terms []string) (map[string]bool, error) {
	resp, err := query(c.Engine, terms, 1)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, q := range resp.Queries {
		if !q.IsOriginal {
			continue
		}
		for _, m := range q.Results {
			out[m.ID.String()] = true
		}
	}
	return out, nil
}

// rankCandidates orders one exploration's candidates under a ranking model
// variant and returns the top-`depth` result identity sets.
func rankCandidates(c *Corpus, q evalQuery, m rank.Model, depth int) ([]map[string]bool, error) {
	type scored struct {
		score float64
		dsim  float64
		res   map[string]bool
	}
	var ss []scored
	for _, it := range q.outcome.Candidates {
		score, err := m.Rank(c.Index, q.outcome.CoCounts, q.cands, q.cs.Corrupted, it.RQ.Keywords, it.RQ.DSim)
		if err != nil {
			return nil, err
		}
		res := make(map[string]bool, len(it.Results))
		for _, match := range it.Results {
			res[match.ID.String()] = true
		}
		ss = append(ss, scored{score: score, dsim: it.RQ.DSim, res: res})
	}
	sort.SliceStable(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].dsim < ss[j].dsim
	})
	if len(ss) > depth {
		ss = ss[:depth]
	}
	out := make([]map[string]bool, len(ss))
	for i, s := range ss {
		out[i] = s.res
	}
	return out, nil
}

// cgTable runs the CG evaluation for a set of ranking variants over the
// effectiveness pool — the shared machinery of Tables IX and X.
func cgTable(c *Corpus, variants []rankingVariant, numQueries, depth int) ([]CGRow, error) {
	pool, err := effectivenessPool(c, numQueries, 4)
	if err != nil {
		return nil, err
	}
	judges := eval.NewJudges(6, 99, 0.15)
	var rows []CGRow
	for _, v := range variants {
		var vectors [][]float64
		for _, q := range pool {
			ranked, err := rankCandidates(c, q, v.Model, depth)
			if err != nil {
				return nil, err
			}
			cg, err := eval.AverageCG(judges, q.intended, ranked, depth)
			if err != nil {
				return nil, err
			}
			vectors = append(vectors, cg)
		}
		rows = append(rows, CGRow{Model: v.Name, CG: eval.MeanVectors(vectors)})
	}
	return rows, nil
}

// Table9 reproduces Table IX: CG@1..4 for the full ranking model RS0
// against the four per-guideline ablations RS1..RS4.
func Table9(c *Corpus, numQueries int) ([]CGRow, error) {
	return cgTable(c, rsVariants(), numQueries, 4)
}

// Table10 reproduces Table X: CG@1..4 for different (α, β) weightings of
// the similarity and dependence scores.
func Table10(c *Corpus, numQueries int) ([]CGRow, error) {
	return cgTable(c, weightVariants(), numQueries, 4)
}
