package reference

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
	"xrefine/internal/refine"
	"xrefine/internal/rules"
	"xrefine/internal/searchfor"
	"xrefine/internal/xmltree"
)

// postings decodes the inverted list of every term.
func postings(ix *index.Index, terms []string) ([][]index.Posting, error) {
	out := make([][]index.Posting, len(terms))
	for i, t := range terms {
		l, err := ix.List(t)
		if err != nil {
			return nil, err
		}
		out[i] = l.Postings()
	}
	return out, nil
}

// meaningful types SLCA results from a witnessing list and keeps the
// meaningful ones (Definition 3.3): the first posting at or after a result
// lies in its subtree, and the result's type is that posting's ancestor
// type at the result's depth.
func meaningful(ids []dewey.ID, witness []index.Posting, judge *searchfor.Judge) []refine.Match {
	var out []refine.Match
	for _, id := range ids {
		i := seekGE(witness, id)
		if i == len(witness) || !dewey.IsAncestorOrSelf(id, witness[i].ID) {
			continue
		}
		if t, err := witness[i].Type.AncestorAt(len(id) - 1); err == nil && judge.Meaningful(t) {
			out = append(out, refine.Match{ID: id, Type: t})
		}
	}
	return out
}

// StackOutcome is the result of stack-refine (Algorithm 1).
type StackOutcome struct {
	// NeedRefine is false when Q itself has a meaningful SLCA
	// (Definition 3.4); Original then holds those results.
	NeedRefine bool
	// Original holds Q's meaningful SLCAs when NeedRefine is false.
	Original []refine.Match
	// Found reports whether any refined query with a meaningful result
	// exists (only meaningful when NeedRefine).
	Found bool
	// Best is the minimum-dissimilarity refined query found.
	Best refine.RQ
	// BestResults holds the meaningful SLCAs of Best.
	BestResults []refine.Match
}

// StackRefine runs Algorithm 1: one stack-based merge over the lists of KS
// (Q's keywords plus the rule-generated ones) that at once (a) decides
// whether Q has a meaningful SLCA and collects those results, and (b) if
// not, finds the refined query of minimum dissimilarity that has a
// meaningful SLCA, with its results (Theorem 1).
func StackRefine(in refine.Input) (*StackOutcome, error) {
	out := &StackOutcome{NeedRefine: true}
	ks := in.ScanKeywords()
	if len(ks) == 0 {
		return out, nil
	}
	lists, err := postings(in.Index, ks)
	if err != nil {
		return nil, err
	}
	// Q is satisfiable only when every original keyword occurs in the
	// data at all; KS lists Q's terms first.
	var qMask uint64
	qSatisfiable := true
	for _, k := range in.Query {
		if i := slices.Index(ks, k); i >= 0 {
			qMask |= 1 << i
		} else {
			qSatisfiable = false
		}
	}

	type entry struct {
		mask   uint64
		belowQ bool // a descendant already claimed a Q result
		typ    *xmltree.Type
	}
	var s pathStack[entry]
	minDSim := math.Inf(1)

	// claimRQ feeds a popped entry's witnessed keywords to getOptimalRQ
	// and updates the running optimum (the paper's lines 13-19).
	claimRQ := func(e entry) {
		avail := make(map[string]bool)
		for i, k := range ks {
			if e.mask&(1<<i) != 0 {
				avail[k] = true
			}
		}
		rqs := refine.TopRQs(in.Query, avail, in.Rules, 1)
		if len(rqs) == 0 || rqs[0].DSim > minDSim {
			return
		}
		rq, node := rqs[0], s.path.Clone()
		switch {
		case rq.DSim < minDSim || rq.Key() < out.Best.Key():
			// A cheaper refinement, or an equal one with a smaller key:
			// the tie rule of refine.SortedList.
			minDSim = rq.DSim
			out.Best = rq
			out.BestResults = []refine.Match{{ID: node, Type: e.typ}}
			out.Found = true
		case rq.Key() == out.Best.Key():
			// The same optimum elsewhere: another SLCA, unless this node
			// is an ancestor of one already recorded.
			for _, m := range out.BestResults {
				if dewey.IsAncestorOrSelf(node, m.ID) {
					return
				}
			}
			out.BestResults = append(out.BestResults, refine.Match{ID: node, Type: e.typ})
		}
		// An equal dSim with a larger key is dropped. Witness bits stay
		// up (the paper's lines 18-19): a cheaper refinement may only
		// become expressible at an ancestor where the witnesses of several
		// children combine.
	}

	err = s.walk(lists,
		func(depth int, p index.Posting) (entry, error) {
			t, err := p.Type.AncestorAt(depth)
			return entry{typ: t}, err
		},
		func(e *entry, mask uint64) { e.mask |= mask },
		func(e entry) {
			reportedQ := false
			if qSatisfiable && e.mask&qMask == qMask && !e.belowQ && in.Judge.Meaningful(e.typ) {
				// Q has a meaningful SLCA here: no refinement needed (the
				// paper's lines 10-12).
				out.NeedRefine = false
				out.Original = append(out.Original, refine.Match{ID: s.path.Clone(), Type: e.typ})
				reportedQ = true
				e.mask = 0
			}
			if out.NeedRefine && e.mask != 0 && in.Judge.Meaningful(e.typ) {
				claimRQ(e)
			}
			if p := s.parent(); p != nil {
				p.mask |= e.mask
				p.belowQ = p.belowQ || e.belowQ || reportedQ
			}
		})
	if err != nil {
		return nil, err
	}
	if !out.NeedRefine {
		out.Found = false
		out.Best = refine.RQ{}
		out.BestResults = nil
	}
	return out, nil
}

// StackExplorer runs StackRefine as an engine exploration, for
// core.NewWithExplorer: the original query's results when it needs no
// refinement, otherwise the optimal refined query, become a one-candidate
// outcome that the engine ranks like any other. Algorithm 1 finds the
// optimum only, so k is ignored.
func StackExplorer(in refine.Input, _ int) (*refine.TopKOutcome, error) {
	st, err := StackRefine(in)
	if err != nil {
		return nil, err
	}
	out := &refine.TopKOutcome{}
	switch {
	case !st.NeedRefine:
		out.Candidates = []*refine.Item{{RQ: refine.NewRQ(in.Query, 0), Results: st.Original}}
	case st.Found:
		out.Candidates = []*refine.Item{{RQ: st.Best, Results: st.BestResults}}
	}
	return out, nil
}

// minDissimilarity returns the cheapest dissimilarity reachable with the
// available keywords, ignoring the non-emptiness constraint: the
// C_potential bound of Algorithm 3's stop condition. False when the query
// is empty.
func minDissimilarity(q []string, avail map[string]bool, rs *rules.Set) (float64, bool) {
	if len(q) == 0 {
		return 0, false
	}
	if rqs := refine.TopRQs(q, avail, rs, 1); len(rqs) > 0 {
		return rqs[0].DSim, true
	}
	// Only the everything-deleted refinement remains.
	return float64(len(q)) * rs.DeleteCost, true
}

// ShortListEager runs Algorithm 3 in its two steps; it has the signature
// of an engine exploration. Step 1 explores top-2K refined-query
// candidates driven by the shortest lists: pick the most promising
// unprocessed keyword, visit only the document partitions containing it,
// probe the other lists to learn which keywords co-occur there, and feed
// that set to the dynamic program. Once processed, a keyword retires:
// every refined query containing it has been seen. Exploration stops
// early once the best refinement expressible with the remaining keywords
// cannot beat the current K-th candidate (C_potential). Step 2 computes
// SLCAs over the full lists with IndexedLookupEager for the candidates
// step 1 saw, in (dSim, key) order, and keeps the first 2K with a
// meaningful result: a candidate dropped for want of one leaves its slot
// to the next, so the list is the one the partition walk keeps.
func ShortListEager(in refine.Input, k int) (*refine.TopKOutcome, error) {
	k = max(k, 1)
	out := &refine.TopKOutcome{}
	ks := in.ScanKeywords()
	if len(ks) == 0 {
		return out, nil
	}
	decoded, err := postings(in.Index, ks)
	if err != nil {
		return nil, err
	}
	lists := make(map[string][]index.Posting, len(ks))
	for i, kw := range ks {
		lists[kw] = decoded[i]
	}
	// A keyword is "stable" when refining it away is unlikely: a query
	// keyword no rule rewrites, or the product of a rule. The smart
	// choice of Section VI-C prefers stable keywords with short lists.
	stable := make(map[string]bool, len(ks))
	for _, kw := range ks {
		if slices.Contains(in.Query, kw) && len(in.Rules.ByLastLHS(kw)) == 0 {
			stable[kw] = true
		}
	}
	for _, r := range in.Rules.Rules() {
		for _, kw := range r.RHS {
			stable[kw] = true
		}
	}

	sorted := refine.NewSortedList(2 * k)
	seen := make(map[string]bool)
	var pool []refine.RQ // every candidate step 1 saw, once
	remaining := append([]string(nil), ks...)
	for len(remaining) > 0 {
		// Stop condition (line 4).
		if sorted.Full() {
			avail := make(map[string]bool, len(remaining))
			for _, kw := range remaining {
				avail[kw] = true
			}
			if cPot, ok := minDissimilarity(in.Query, avail, in.Rules); ok && cPot > sorted.Worst() {
				break
			}
		}
		// Smart pick: stable first, then shortest list.
		sort.SliceStable(remaining, func(i, j int) bool {
			si, sj := stable[remaining[i]], stable[remaining[j]]
			if si != sj {
				return si
			}
			return len(lists[remaining[i]]) < len(lists[remaining[j]])
		})
		li := lists[remaining[0]]
		remaining = remaining[1:]

		// Visit each partition containing the keyword (lines 7-14).
		for pos := 0; pos < len(li); {
			pid, ok := li[pos].ID.Partition()
			if !ok {
				pos++ // root posting: no partition
				continue
			}
			out.Partitions++
			avail := make(map[string]bool, len(ks))
			for _, kw := range ks {
				if s, e := inSubtree(lists[kw], pid); s < e {
					avail[kw] = true
				}
			}
			for _, rq := range refine.TopRQs(in.Query, avail, in.Rules, 2*k) {
				sorted.Insert(rq, nil)
				if !seen[rq.Key()] {
					seen[rq.Key()] = true
					pool = append(pool, rq)
				}
			}
			pos = seekGE(li, pid.Next())
		}
	}

	// Step 2 (lines 17-18).
	slices.SortFunc(pool, func(a, b refine.RQ) int {
		return cmp.Or(cmp.Compare(a.DSim, b.DSim), strings.Compare(a.Key(), b.Key()))
	})
	kept := refine.NewSortedList(2 * k)
	for _, rq := range pool {
		if kept.Full() {
			break
		}
		sub := make([][]index.Posting, len(rq.Keywords))
		for i, kw := range rq.Keywords {
			sub[i] = lists[kw]
		}
		out.SLCACalls++
		if res := meaningful(IndexedLookupEager(sub), sub[0], in.Judge); len(res) > 0 {
			kept.Insert(rq, res)
		}
	}
	out.Candidates = kept.Items()
	return out, nil
}
