package experiments

import (
	"math/rand"

	"xrefine/internal/datagen"
	"xrefine/internal/experiments/reference"
	"xrefine/internal/index"
	"xrefine/internal/refine"
	"xrefine/internal/rules"
	"xrefine/internal/slca"
)

// This file holds experiments for the repository's extensions beyond the
// paper: the beam-width recall of the k-best dynamic program, and the
// SLCA-vs-ELCA result-semantics comparison.

// BeamRow reports candidate recall at one beam factor: of the true m
// cheapest distinct refinements (by exhaustive enumeration), what fraction
// did the beam-limited DP surface?
type BeamRow struct {
	BeamFactor int
	// Recall is averaged over instances; 1.0 means the beam never lost a
	// true top-m candidate.
	Recall float64
	// OptimalAlways reports whether the single cheapest refinement was
	// found in every instance (it must be — the DP is exact at rank 1).
	OptimalAlways bool
}

// AblationBeam quantifies the paper's "a ranked list of some (but not all)
// non-optimal RQ candidates": random rule sets and availability patterns,
// exhaustive ground truth, recall of the beam DP at several widths.
func AblationBeam(instances, m int, seed int64) ([]BeamRow, error) {
	r := rand.New(rand.NewSource(seed))
	vocab := []string{"a", "b", "c", "d", "x", "y", "z", "w"}
	type instance struct {
		q     []string
		rs    *rules.Set
		avail map[string]bool
		truth map[string]float64 // keyword-set key -> exact min cost
		topM  []string           // keys of the true m cheapest sets
	}
	var insts []instance
	for len(insts) < instances {
		q := make([]string, 2+r.Intn(3))
		for i := range q {
			q[i] = vocab[r.Intn(4)]
		}
		rs := rules.NewSet(2)
		for i := 0; i < 2+r.Intn(4); i++ {
			lhs := []string{vocab[r.Intn(4)]}
			if r.Intn(3) == 0 {
				lhs = append(lhs, vocab[r.Intn(4)])
			}
			rhs := []string{vocab[4+r.Intn(4)]}
			if r.Intn(3) == 0 {
				rhs = append(rhs, vocab[4+r.Intn(4)])
			}
			_ = rs.Add(rules.Rule{Op: rules.OpSubstitute, LHS: lhs, RHS: rhs, Score: float64(1 + r.Intn(2))})
		}
		avail := map[string]bool{}
		for _, v := range vocab {
			if r.Intn(2) == 0 {
				avail[v] = true
			}
		}
		truth := exhaustiveRQs(q, avail, rs)
		if len(truth) < m {
			continue // not enough distinct refinements to rank
		}
		insts = append(insts, instance{q: q, rs: rs, avail: avail, truth: truth, topM: cheapestKeys(truth, m)})
	}
	var rows []BeamRow
	for _, factor := range []int{1, 2, 4, 8} {
		row := BeamRow{BeamFactor: factor, OptimalAlways: true}
		totalRecall := 0.0
		for _, in := range insts {
			got := refine.TopRQsBeam(in.q, in.avail, in.rs, m, factor*m)
			gotKeys := map[string]bool{}
			for _, rq := range got {
				gotKeys[rq.Key()] = true
			}
			hits := 0
			for _, k := range in.topM {
				if gotKeys[k] {
					hits++
				}
			}
			totalRecall += float64(hits) / float64(len(in.topM))
			if len(got) == 0 || in.truth[got[0].Key()] != got[0].DSim || got[0].DSim != in.truth[in.topM[0]] {
				row.OptimalAlways = false
			}
		}
		row.Recall = totalRecall / float64(len(insts))
		rows = append(rows, row)
	}
	return rows, nil
}

// exhaustiveRQs enumerates every refinement sequence without pruning —
// exact ground truth for small instances.
func exhaustiveRQs(q []string, avail map[string]bool, rs *rules.Set) map[string]float64 {
	best := map[string]float64{}
	var rec func(i int, cost float64, keys []string)
	rec = func(i int, cost float64, keys []string) {
		if i == len(q) {
			if len(keys) == 0 {
				return
			}
			k := refine.NewRQ(keys, 0).Key()
			if old, ok := best[k]; !ok || cost < old {
				best[k] = cost
			}
			return
		}
		rec(i+1, cost+rs.DeleteCost, keys)
		if avail[q[i]] {
			rec(i+1, cost, append(append([]string(nil), keys...), q[i]))
		}
		for _, r := range rs.Rules() {
			n := len(r.LHS)
			if i+n > len(q) {
				continue
			}
			match := true
			for j := 0; j < n; j++ {
				if q[i+j] != r.LHS[j] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			ok := true
			for _, k := range r.RHS {
				if !avail[k] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			rec(i+n, cost+r.Score, append(append([]string(nil), keys...), r.RHS...))
		}
	}
	rec(0, 0, nil)
	return best
}

// cheapestKeys returns the keys of the m cheapest entries, cost-then-key
// ordered for determinism.
func cheapestKeys(truth map[string]float64, m int) []string {
	type kv struct {
		k string
		c float64
	}
	all := make([]kv, 0, len(truth))
	for k, c := range truth {
		all = append(all, kv{k, c})
	}
	for i := 1; i < len(all); i++ { // insertion sort; tiny inputs
		for j := i; j > 0 && (all[j].c < all[j-1].c || (all[j].c == all[j-1].c && all[j].k < all[j-1].k)); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	if len(all) > m {
		all = all[:m]
	}
	keys := make([]string, len(all))
	for i, e := range all {
		keys[i] = e.k
	}
	return keys
}

// ELCARow compares result counts under the two semantics for one query.
type ELCARow struct {
	Query []string
	SLCA  int
	ELCA  int
}

// CompareELCA runs satisfiable workload queries under both SLCA and ELCA
// and reports result counts — ELCA is always a superset (asserted by the
// reference package tests); this measures by how much on realistic data.
func CompareELCA(c *Corpus, queries int) ([]ELCARow, error) {
	cases, err := c.Workload(datagen.WorkloadConfig{Seed: 321, Queries: queries})
	if err != nil {
		return nil, err
	}
	var rows []ELCARow
	for _, cs := range cases {
		lists := make([]*index.List, len(cs.Intended))
		ok := true
		for i, k := range cs.Intended {
			l, err := c.Index.List(k)
			if err != nil {
				return nil, err
			}
			if l.Len() == 0 {
				ok = false
				break
			}
			lists[i] = l
		}
		if !ok {
			continue
		}
		decoded := make([][]index.Posting, len(lists))
		for i, l := range lists {
			decoded[i] = l.Postings()
		}
		rows = append(rows, ELCARow{
			Query: cs.Intended,
			SLCA:  len(slca.ScanEager(decoded)),
			ELCA:  len(reference.ELCA(decoded)),
		})
	}
	return rows, nil
}
