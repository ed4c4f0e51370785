// Package refine implements the heart of the paper: the exploration of
// refined queries integrated with the generation of their matching results,
// within one scan of the keyword inverted lists. It provides the dynamic
// program of Section V (getOptimalRQ and its top-2K extension) and the
// partition-based top-K refinement of Section VI (Algorithm 2), the one
// the engine serves. The paper's other two refinement algorithms,
// stack-based (Algorithm 1) and short-list eager (Algorithm 3), live in
// internal/experiments/reference.
package refine

import (
	"math"
	"slices"
	"sort"
	"strings"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
	"xrefine/internal/obs"
	"xrefine/internal/rules"
	"xrefine/internal/searchfor"
	"xrefine/internal/slca"
	"xrefine/internal/xmltree"
)

// RQ is a refined query: a keyword set plus its dissimilarity dSim(Q,RQ)
// (Definition 3.6). Keywords are sorted and unique; a keyword query is a
// set, so order carries no meaning. Steps carries the provenance of the
// cheapest refinement sequence producing this keyword set; it is excluded
// from identity (Key) and from dissimilarity.
type RQ struct {
	Keywords []string
	DSim     float64
	Steps    []Step
}

// NewRQ canonicalizes a keyword multiset into an RQ.
func NewRQ(keywords []string, dSim float64) RQ {
	return RQ{Keywords: canonical(keywords), DSim: dSim}
}

func canonical(keywords []string) []string {
	out := slices.Clone(keywords)
	slices.Sort(out)
	return slices.Compact(out)
}

// Key returns a canonical identity string, used for dedup.
func (r RQ) Key() string { return strings.Join(r.Keywords, "\x00") }

// String renders the RQ for humans.
func (r RQ) String() string { return "{" + strings.Join(r.Keywords, ", ") + "}" }

// SameKeywords reports whether r's keyword set equals terms (as a set):
// each contains the other. It allocates nothing.
func (r RQ) SameKeywords(terms []string) bool {
	for _, t := range terms {
		if !slices.Contains(r.Keywords, t) {
			return false
		}
	}
	for _, k := range r.Keywords {
		if !slices.Contains(terms, k) {
			return false
		}
	}
	return true
}

// Match is one matching result: a meaningful SLCA node.
type Match struct {
	// ID is the Dewey label of the result node.
	ID dewey.ID
	// Type is the node type of the result node.
	Type *xmltree.Type
}

// Item pairs a refined query with its accumulated matching results.
type Item struct {
	RQ      RQ
	Results []Match
	key     string // RQ.Key(), kept for eviction
	more    int    // results queued by extend, not yet in Results
}

// SortedList is the RQSortedList of Section VI-B: a capacity-bounded list
// of refined-query candidates ordered by dissimilarity, with O(1)
// membership via a side table. The paper backs it with a B-tree; with the
// capacity fixed at 2K (a dozen or so entries) a sorted slice has the same
// asymptotics in spirit and better constants.
//
// The order is total: equal dissimilarities are ordered by the RQ key.
// Which candidates a walk keeps then depends only on which have results
// (meaningful SLCAs in partitions whose dynamic-program output surfaces
// them), not on the order they arrive in, so the list a walk ends with is
// the 2K smallest candidates that have a result, whatever the layout of
// the document.
type SortedList struct {
	cap   int
	items []*Item
	byKey map[string]*Item
	slab  arena[Item] // the items, cut from chunks that reset keeps
	// later is extend's queue, in arrival order, in chunks of doubling
	// size, so that growing it copies nothing.
	later arena[laterResults]
}

// laterResults is one run of results for an item already in the list.
type laterResults struct {
	it  *Item
	res []Match
}

// NewSortedList returns an empty list holding at most cap candidates.
func NewSortedList(cap int) *SortedList {
	l := &SortedList{}
	l.reset(cap)
	return l
}

// reset empties the list and sets its capacity, keeping its table, item
// chunks and queue chunks for reuse.
func (l *SortedList) reset(cap int) {
	l.cap = max(cap, 1)
	l.items = clearAll(l.items)
	if l.byKey == nil {
		l.byKey = make(map[string]*Item)
	}
	clear(l.byKey)
	l.slab.reset()
	l.later.reset()
}

// Len returns the number of stored candidates.
func (l *SortedList) Len() int { return len(l.items) }

// Full reports whether the list is at capacity.
func (l *SortedList) Full() bool { return len(l.items) >= l.cap }

// Worst returns the largest stored dissimilarity, or +Inf when not full —
// the threshold a new candidate must reach (the paper's line 12 check).
func (l *SortedList) Worst() float64 {
	if !l.Full() {
		return math.Inf(1)
	}
	return l.items[len(l.items)-1].RQ.DSim
}

// before reports whether the candidate (dSim, key) orders before it.
func before(dSim float64, key string, it *Item) bool {
	return dSim < it.RQ.DSim || dSim == it.RQ.DSim && key < it.key
}

// Qualifies reports whether a candidate with the given dissimilarity and
// key would be admitted: the list is not full, or the candidate orders
// before its worst.
func (l *SortedList) Qualifies(dSim float64, key string) bool {
	return !l.Full() || before(dSim, key, l.items[len(l.items)-1])
}

// Has returns the stored item for rq, or nil — the hasRQ probe.
func (l *SortedList) Has(rq RQ) *Item { return l.byKey[rq.Key()] }

// Insert admits a candidate, evicting the worst when over capacity. It
// returns the stored item, or nil when the candidate did not qualify.
// Inserting an already-present RQ returns the existing item unchanged.
func (l *SortedList) Insert(rq RQ, results []Match) *Item {
	return l.insert(rq, rq.Key(), results)
}

// insert is Insert with rq's identity key already computed — the walk
// computes it once per dynamic-program run and reuses it for every
// partition.
func (l *SortedList) insert(rq RQ, key string, results []Match) *Item {
	if it := l.byKey[key]; it != nil {
		return it
	}
	if !l.Qualifies(rq.DSim, key) {
		return nil
	}
	it := &l.slab.take(1)[0]
	*it = Item{RQ: rq, Results: results, key: key}
	pos := sort.Search(len(l.items), func(i int) bool { return before(rq.DSim, key, l.items[i]) })
	l.items = append(l.items, nil)
	copy(l.items[pos+1:], l.items[pos:])
	l.items[pos] = it
	l.byKey[key] = it
	if len(l.items) > l.cap {
		ev := l.items[len(l.items)-1]
		l.items = l.items[:len(l.items)-1]
		delete(l.byKey, ev.key)
	}
	return it
}

// extend queues res to follow the results of it. The walk extends an item
// once per later partition that surfaces it; settle then sizes each item's
// Results once, where an append per partition would regrow it each time.
func (l *SortedList) extend(it *Item, res []Match) {
	it.more += len(res)
	l.later.take(1)[0] = laterResults{it, res}
}

// settle moves every queued run of a kept item into its Results, in
// arrival order, and returns Items. Each kept item with queued runs gets
// its Results cut from res once, at their full length; an evicted item's
// runs are not copied. res may be the slab the runs were cut from: an
// arena never moves what it has handed out.
func (l *SortedList) settle(res *arena[Match]) []*Item {
	for _, it := range l.items {
		if it.more > 0 {
			r := res.take(len(it.Results) + it.more)
			it.Results, it.more = r[:copy(r, it.Results)], 0
		}
	}
	for _, chunk := range l.later.chunks {
		for _, lr := range chunk {
			if lr.it.more == 0 {
				lr.it.Results = append(lr.it.Results, lr.res...)
			}
		}
	}
	l.later.reset()
	return l.items
}

// Items returns the stored candidates, best (smallest dissimilarity) first.
// The slice is shared; callers may mutate item results but not list order.
func (l *SortedList) Items() []*Item { return l.items }

// Input bundles what every refinement algorithm needs.
type Input struct {
	// Index is the document's access structure.
	Index *index.Index
	// Query is the normalized original keyword query Q.
	Query []string
	// Rules is the refinement rule set relevant to Q.
	Rules *rules.Set
	// Judge decides meaningfulness (Definition 3.3) from the inferred
	// search-for candidates.
	Judge *searchfor.Judge
	// SLCA and Parallelism are ignored: every SLCA computation is
	// scan-eager, and the walk is one scan on the caller's goroutine. The
	// fields stay only because the benchmark in bench/ still sets them.
	SLCA        slca.Algorithm
	Parallelism int
	// Budget, when non-nil, bounds the execution: cancellation aborts
	// with the context error, while deadline expiry or posting-budget
	// exhaustion stops the exploration early and marks the outcome
	// Degraded — partial but valid results. A nil Budget never stops
	// anything and the output is byte-identical to pre-budget behavior.
	Budget *Budget
	// Trace, when non-nil, is the span the algorithm hangs its stage
	// spans off (list loads, per-scan shares) and accumulates SLCA
	// time into. A nil Trace costs one nil check per instrumentation
	// point and never changes the computed results.
	Trace *obs.Span
}

// ScanKeywords returns the scan keyword set KS of Algorithms 1-3: Q's
// keywords plus the rule-generated new keywords, restricted to terms that
// occur in the data, with Q's terms first, in Q order. The shard router
// computes it once against the merged corpus index and hands the same set
// to every per-shard scan, so all shards walk identical keyword columns
// even when a term happens to be absent from one shard.
func (in *Input) ScanKeywords() []string {
	var ks []string
	for _, k := range append(slices.Clone(in.Query), in.Rules.NewKeywords(in.Query)...) {
		if !slices.Contains(ks, k) && in.Index.HasTerm(k) {
			ks = append(ks, k)
		}
	}
	return ks
}

// typedMatch resolves the node type of an SLCA result from p, the first
// witnessing posting at or after it: that posting lies inside the result's
// subtree, and the result's type is the posting's ancestor type at the
// result's depth.
func typedMatch(id dewey.ID, p index.Posting) (Match, bool) {
	if !dewey.IsAncestorOrSelf(id, p.ID) {
		return Match{}, false
	}
	t, err := p.Type.AncestorAt(len(id) - 1)
	if err != nil {
		return Match{}, false
	}
	return Match{ID: id, Type: t}, true
}

// appendMeaningful converts raw SLCA IDs into typed matches, each typed
// from the first posting at or after it in the document-ordered witness,
// and appends the meaningful ones (Definition 3.3) to dst.
func appendMeaningful(dst []Match, ids []dewey.ID, witness []index.Posting, judge *searchfor.Judge) []Match {
	for _, id := range ids {
		i := sort.Search(len(witness), func(i int) bool { return dewey.Compare(witness[i].ID, id) >= 0 })
		if i == len(witness) {
			continue
		}
		if m, ok := typedMatch(id, witness[i]); ok && judge.Meaningful(m.Type) {
			dst = append(dst, m)
		}
	}
	return dst
}
