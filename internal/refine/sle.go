package refine

import (
	"sort"
	"time"

	"xrefine/internal/index"
	"xrefine/internal/slca"
)

// ShortListEager runs Algorithm 3 in its two steps. Step 1 explores top-K
// refined-query candidates driven by the shortest inverted lists: pick the
// most promising unprocessed keyword, visit only the document partitions
// containing it, probe the other keyword lists by random access to learn
// which keywords co-occur there, and feed the co-occurring set to the
// dynamic program. After a keyword is processed every refined query
// containing it has been seen, so the keyword retires; exploration stops
// early once even the best refinement expressible with the remaining
// keywords cannot beat the current K-th candidate (C_potential). Step 2
// computes the SLCA results of the surviving candidates with any existing
// SLCA algorithm over the full lists.
func ShortListEager(in Input, k int) (*TopKOutcome, error) {
	if k < 1 {
		k = 1
	}
	out := &TopKOutcome{}
	ks := in.scanKeywords()
	if len(ks) == 0 {
		return out, nil
	}
	lists := make(map[string]*index.List, len(ks))
	{
		ctx := in.Budget.Context()
		sp := in.Trace.StartChild("load-lists")
		var loaded, postings int64
		for _, kw := range ks {
			l, wasLoaded, err := in.Index.ListCtxInfo(ctx, kw)
			if err != nil {
				sp.End()
				return nil, err
			}
			if wasLoaded {
				loaded++
			}
			postings += int64(l.Len())
			// A private view per query: the random-access probes below
			// keep their block locality to themselves.
			lists[kw] = l.View()
		}
		if sp != nil {
			sp.SetInt("lists", int64(len(ks)))
			sp.SetInt("loaded", loaded)
			sp.SetInt("postings", postings)
			sp.End()
		}
	}
	sorted := NewSortedList(2 * k)
	remaining := append([]string(nil), ks...)
	inQ := make(map[string]bool, len(in.Query))
	for _, kw := range in.Query {
		inQ[kw] = true
	}
	// A keyword is "stable" when refining it away is unlikely: it is a
	// query keyword that no rule rewrites, or it is itself the product
	// of a rule (RHS). The smart choice of Section VI-C prefers stable
	// keywords with short lists.
	stable := make(map[string]bool, len(ks))
	for _, kw := range ks {
		if inQ[kw] && len(in.Rules.ByLastLHS(kw)) == 0 {
			stable[kw] = true
		}
	}
	for _, r := range in.Rules.Rules() {
		for _, kw := range r.RHS {
			stable[kw] = true
		}
	}

	budgetStopped := false
	for len(remaining) > 0 && !budgetStopped {
		// Stop condition (line 4): the cheapest refinement expressible
		// with only unprocessed keywords cannot displace the current
		// K-th candidate.
		if sorted.Full() {
			avail := make(map[string]bool, len(remaining))
			for _, kw := range remaining {
				avail[kw] = true
			}
			if cPot, ok := MinDissimilarity(in.Query, avail, in.Rules); ok && cPot > sorted.Worst() {
				break
			}
		}
		// Smart pick: stable first, then shortest list.
		sort.SliceStable(remaining, func(i, j int) bool {
			si, sj := stable[remaining[i]], stable[remaining[j]]
			if si != sj {
				return si
			}
			return lists[remaining[i]].Len() < lists[remaining[j]].Len()
		})
		ki := remaining[0]
		remaining = remaining[1:]

		// Visit each partition containing ki (lines 7-14).
		li := lists[ki]
		pos := 0
		for pos < li.Len() {
			pid, ok := li.At(pos).ID.Partition()
			if !ok {
				pos++ // root posting: no partition
				continue
			}
			// Charge the anchor keyword's share of the partition; the
			// exploration stops at partition granularity like the
			// partition walk does.
			if !in.Budget.Charge(li.SeekGE(pid.Next()) - pos) {
				if err := in.Budget.Err(); err != nil {
					return nil, err
				}
				budgetStopped = true
				break
			}
			out.Partitions++
			avail := make(map[string]bool, len(ks))
			for _, kw := range ks {
				if lists[kw].HasInSubtree(pid) {
					avail[kw] = true
				}
			}
			rqs := TopRQs(in.Query, avail, in.Rules, 2*k)
			out.RQGenerated += len(rqs)
			for _, rq := range rqs {
				if sorted.Has(rq) != nil {
					continue
				}
				if !sorted.Qualifies(rq.DSim) {
					out.RQPruned++
					continue
				}
				sorted.Insert(rq, nil)
			}
			// Jump past this partition in ki's list.
			pos = li.SeekGE(pid.Next())
		}
	}

	// Step 2 (lines 17-18): SLCAs of every surviving candidate over the
	// full lists; candidates without a meaningful result drop out. The
	// budget is re-checked before each candidate — full-list SLCA is the
	// expensive stage here — and a degradable stop keeps the candidates
	// whose results were already computed.
	step2 := in.Trace.StartChild("slca")
	defer step2.End()
	for _, it := range sorted.Items() {
		if !in.Budget.Ok() {
			if err := in.Budget.Err(); err != nil {
				return nil, err
			}
			break
		}
		sub := make([]*index.List, len(it.RQ.Keywords))
		for i, kw := range it.RQ.Keywords {
			sub[i] = lists[kw]
		}
		out.SLCAPostings += int64(slca.Cost(sub))
		ids, err := slca.ComputeCtx(in.Budget.Context(), in.SLCA, sub)
		if err != nil {
			if berr := in.Budget.Err(); berr != nil {
				return nil, berr
			}
			// Deadline expired mid-computation: trip the budget so the
			// outcome is marked degraded, and keep what we have.
			in.Budget.Ok()
			break
		}
		out.SLCACalls++
		res := appendMeaningful(nil, ids, sub[0], in.Judge)
		if len(res) == 0 {
			continue
		}
		it.Results = res
		out.Candidates = append(out.Candidates, it)
	}
	if step2 != nil {
		step2.SetInt("calls", int64(out.SLCACalls))
		step2.SetInt("postings", out.SLCAPostings)
	}
	out.markDegraded(in.Budget)
	return out, nil
}

// Original computes the meaningful SLCAs of the original query directly —
// the baseline the experiments compare against (stack-slca / scan-slca on
// Q) and the quick path for engines that know no refinement is wanted.
func Original(in Input) ([]Match, error) {
	ctx := in.Budget.Context()
	sp := in.Trace.StartChild("load-lists")
	sub := make([]*index.List, len(in.Query))
	var loaded, postings int64
	for i, kw := range in.Query {
		l, wasLoaded, err := in.Index.ListCtxInfo(ctx, kw)
		if err != nil {
			sp.End()
			return nil, err
		}
		if wasLoaded {
			loaded++
		}
		postings += int64(l.Len())
		if l.Len() == 0 {
			sp.End()
			return nil, nil
		}
		sub[i] = l
	}
	if sp != nil {
		sp.SetInt("lists", int64(len(in.Query)))
		sp.SetInt("loaded", loaded)
		sp.SetInt("postings", postings)
		sp.End()
	}
	if len(sub) == 0 {
		return nil, nil
	}
	var t0 time.Time
	if in.Trace != nil {
		t0 = time.Now()
	}
	ids, err := slca.ComputeCtx(ctx, in.SLCA, sub)
	if in.Trace != nil {
		in.Trace.AddInt("slca_ns", int64(time.Since(t0)))
	}
	if err != nil {
		return nil, err
	}
	return appendMeaningful(nil, ids, sub[0], in.Judge), nil
}
