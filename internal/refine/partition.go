package refine

import (
	"time"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
	"xrefine/internal/slca"
)

// TopKOutcome is the result of the partition-based and short-list eager
// algorithms: up to 2K refined-query candidates by dissimilarity, each with
// its accumulated meaningful SLCA results. The caller (the engine) applies
// the full ranking model (Formula 10) to produce the final top K — the
// paper's line 19.
type TopKOutcome struct {
	// Candidates holds refined queries with at least one meaningful
	// result, in ascending (dSim, key) order.
	Candidates []*Item
	// Partitions counts document partitions actually visited, an
	// efficiency observable for the experiments.
	Partitions int
	// SLCACalls counts delegated SLCA computations. A walk over several
	// shards counts its scans' calls, which may be more than a lone walk
	// makes: each shard scan prunes against its own list and a shared
	// bound, both looser than the lone walk's list until they fill.
	SLCACalls int
	// Degraded reports that the exploration stopped early — deadline or
	// posting budget — and Candidates holds the best refined queries
	// found up to that point rather than the complete answer.
	Degraded bool
	// DegradedReason is one of the Degraded* constants when Degraded.
	DegradedReason string

	// RQGenerated counts refined-query candidates the dynamic program
	// produced across visited partitions (before dedup or pruning) —
	// the exploration's raw breadth.
	RQGenerated int
	// DPRuns counts the partition walk's runs of the top-2K dynamic
	// program: one per distinct available-keyword mask, shared by all the
	// shard scans of a walk, rather than one per partition.
	DPRuns int
	// RQPruned counts candidates whose SLCA computation the top-2K
	// dissimilarity bound skipped — the paper's key optimization made
	// observable.
	RQPruned int
	// SLCAPostings totals the postings handed to delegated SLCA
	// computations — the work the SLCA layer actually received.
	SLCAPostings int64
	// CoCounts is the co-occurrence the walk counted, which ranking
	// reads (Formula 7); a shard walk's is the sum of its scans'. Nil for
	// an exploration that is not the partition walk.
	CoCounts *CoCounts

	st *Scan // the state the outcome lives in, until Release
}

// markDegraded records a budget-induced early stop on the outcome.
func (o *TopKOutcome) markDegraded(b *Budget) {
	if r := b.Reason(); r != "" {
		o.Degraded = true
		o.DegradedReason = r
	}
}

// PartitionTopK runs Algorithm 2: walk the keyword lists partition by
// partition (Definition 6.1) in document order; within each partition run
// the top-2K dynamic program over the keywords present, skip SLCA work for
// candidates that cannot enter the current top-2K (the paper's key
// optimization), and compute results with scan-eager, restricted to the
// partition's sublists. Each list is traversed exactly once
// (Theorem 2).
//
// It is one run of walk.go's partition loop on the caller's goroutine,
// whose top-2K SortedList is the candidates. The walk borrows a Scan from
// the free list, and the outcome lives in it until Release.
func PartitionTopK(in Input, k int) (*TopKOutcome, error) {
	k = max(k, 1)
	ks := in.ScanKeywords()
	if len(ks) == 0 {
		return &TopKOutcome{}, nil
	}
	s := getScan()
	if err := s.scan(in, k, ks, &s.own); err != nil {
		s.Release()
		return nil, err
	}
	out := &s.out
	*out = TopKOutcome{Candidates: s.list.settle(&s.slca.slab), CoCounts: &s.co.CoCounts, st: s}
	s.addTo(out)
	out.markDegraded(in.Budget)
	return out, nil
}

// scanLists fetches the inverted list of every scan keyword into the
// scan's list buffer. Loads go through the context-aware index path so a
// canceled query stops between (possibly disk-backed) list loads. Under
// tracing it records a "load-lists" span noting how many lists had to be
// lazily loaded (vs already resident) and the posting mass fetched.
func (s *Scan) scanLists(in Input, ks []string) ([]*index.List, error) {
	ctx := in.Budget.Context()
	sp := in.Trace.StartChild("load-lists")
	lists := s.lists[:0]
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
		lists = append(lists, l)
	}
	s.lists = lists
	if sp != nil {
		sp.SetInt("lists", int64(len(ks)))
		sp.SetInt("loaded", loaded)
		sp.SetInt("postings", postings)
		sp.End()
	}
	return lists, nil
}

// partitionWalker advances a cursor set over the keyword lists one document
// partition at a time (the getKLPartition loop of Algorithm 2, lines 5-8).
// Each list is read through one pooled block cursor that only moves forward,
// so the walk decodes each compressed block once (Theorem 2's single
// scan). In the same pass it copies the partition's postings into
// walker-owned buffers — one posting buffer and one ID arena, reused
// across partitions and, in a Scan, across walks — which the partition's
// SLCA calls and result typing read. close() must run when the walk ends
// to recycle the decode buffers.
type partitionWalker struct {
	curs []index.Cursor
	// cols[i] is the current partition's postings of lists[i], a slice
	// of posts whose IDs are cut from arena; both are overwritten by the
	// next partition.
	cols  [][]index.Posting
	ends  []int
	posts []index.Posting
	arena []uint32
	// mask is the partition's available-keyword set T as a bitset over
	// the scan keywords: bit i is set when lists[i] has a posting in it.
	mask   []byte
	v      dewey.ID // owned copy of the current minimum head (reused)
	pidEnd dewey.ID // the partition root's next sibling, its exclusive bound (reused)
}

// open positions a cursor at the start of each list. The cursors are kept
// by value, so opening them allocates nothing once the walker has grown.
func (w *partitionWalker) open(lists []*index.List) {
	w.curs = resize(w.curs, len(lists))
	w.cols = resize(w.cols, len(lists))
	w.ends = resize(w.ends, len(lists))
	w.mask = resize(w.mask, (len(lists)+7)/8)
	for i, l := range lists {
		w.curs[i] = *l.NewCursor()
	}
}

// reset drops the walker's references into the last walk's lists,
// keeping its buffers.
func (w *partitionWalker) reset() {
	w.curs, w.cols, w.posts = clearAll(w.curs), clearAll(w.cols), clearAll(w.posts)
}

// maskHas reports whether bit i of a keyword mask is set.
func maskHas(mask []byte, i int) bool { return mask[i/8]&(1<<(i%8)) != 0 }

// close recycles the walker's cursor decode buffers.
func (w *partitionWalker) close() {
	for i := range w.curs {
		w.curs[i].Close()
	}
}

// spanPostings returns the posting mass of the current partition — what
// the budget charges per partition visited.
func (w *partitionWalker) spanPostings() int { return len(w.posts) }

// next advances to the next non-empty partition, filling w.cols and
// w.mask with the partition's postings. It returns false when every list
// has ended. Postings at the document root belong to no partition and are
// skipped (the root is never a meaningful result).
func (w *partitionWalker) next() bool {
	for {
		// Smallest unconsumed node across lists (paper line 5). The IDs a
		// cursor yields alias its reusable decode buffer, so the running
		// minimum is copied into w.v.
		found := false
		for i := range w.curs {
			c := &w.curs[i]
			if !c.Valid() {
				continue
			}
			id := c.ID()
			if !found || dewey.Compare(id, w.v) < 0 {
				w.v = append(w.v[:0], id...)
				found = true
			}
		}
		if !found {
			return false
		}
		v := w.v
		if len(v) < 2 {
			for i := range w.curs {
				if c := &w.curs[i]; c.Valid() && dewey.Equal(c.ID(), v) {
					c.Next()
				}
			}
			continue
		}
		w.fill(v[:2])
		return true
	}
}

// fill copies the postings of partition pid from every cursor into w's
// buffers, advancing each cursor past them. Every cursor must stand on a
// posting >= pid, or past its list's end.
func (w *partitionWalker) fill(pid dewey.ID) {
	w.pidEnd = append(w.pidEnd[:0], pid...)
	w.pidEnd[len(w.pidEnd)-1]++
	w.posts, w.arena = w.posts[:0], w.arena[:0]
	clear(w.mask)
	for i := range w.curs {
		start := len(w.posts)
		w.posts, w.arena = w.curs[i].AppendUntil(w.posts, w.arena, w.pidEnd)
		w.ends[i] = len(w.posts)
		if len(w.posts) > start {
			w.mask[i/8] |= 1 << (i % 8)
		}
	}
	start := 0
	for i, end := range w.ends {
		w.cols[i] = w.posts[start:end:end]
		start = end
	}
}

// slcaScratch is one scan's working memory for its SLCA calls: the
// current call's keyword columns, the SLCA computation's buffers, and the
// slabs the calls' results are cut from. A scan runs on one goroutine, so
// each scan owns one scratch and no scratch is shared across goroutines.
type slcaScratch struct {
	sub  [][]index.Posting
	slca slca.Scratch
	slab arena[Match]
	ids  arena[uint32]
}

// partitionSLCA computes the meaningful SLCAs of c's refined query inside
// one document partition by running scan-eager over the partition's
// postings, read straight from c's keyword columns of cols. The second
// return is the posting mass the SLCA computation consumed (0 when a
// keyword was absent and the computation was skipped). Under tracing, the
// time spent in the SLCA layer accumulates onto the trace span's slca_ns
// attribute — safe from concurrent workers.
//
// cols alias the walker's buffers, which the next partition overwrites,
// so every result ID is copied into x's ID slab. The results are a
// capacity-capped slice of x's slab, so appending to them copies and never
// writes into another call's results. Once x's slabs have grown, in this
// walk or an earlier one of the same Scan, the call allocates nothing.
func (x *slcaScratch) partitionSLCA(in Input, c *dpCand, cols [][]index.Posting) ([]Match, int) {
	sub := x.sub[:0]
	for _, col := range c.cols {
		if len(cols[col]) == 0 {
			return nil, 0 // keyword absent from partition
		}
		sub = append(sub, cols[col])
	}
	x.sub = sub
	var t0 time.Time
	if in.Trace != nil {
		t0 = time.Now()
	}
	ids := x.slca.ScanEager(sub)
	if in.Trace != nil {
		in.Trace.AddInt("slca_ns", int64(time.Since(t0)))
	}
	cost := slca.Cost(sub)
	if len(ids) == 0 {
		return nil, cost
	}
	n := len(appendMeaningful(x.slab.tail(len(ids)), ids, sub[len(sub)-1], in.Judge))
	if n == 0 {
		return nil, cost
	}
	res := x.slab.cut(n)
	for i := range res {
		id := x.ids.take(len(res[i].ID))
		copy(id, res[i].ID)
		res[i].ID = id
	}
	return res, cost
}

// Original computes the meaningful SLCAs of the original query directly —
// what narrowing counts and verifies. It returns the context error of
// in.Budget once that context is done, before or during the scan.
func Original(in Input) ([]Match, error) {
	ctx := in.Budget.Context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sub := make([]*index.List, len(in.Query))
	for i, kw := range in.Query {
		l, _, err := in.Index.ListCtxInfo(ctx, kw)
		if err != nil {
			return nil, err
		}
		if l.Len() == 0 {
			return nil, nil
		}
		sub[i] = l
	}
	ids, err := slca.ScanEagerCtx(ctx, sub)
	if err != nil || len(ids) == 0 {
		return nil, err
	}
	// The results are disjoint subtrees in document order, so one forward
	// cursor finds each result's first witness posting.
	c := sub[0].NewCursor()
	defer c.Close()
	var out []Match
	for _, id := range ids {
		c.SeekGE(id)
		if !c.Valid() {
			break
		}
		if m, ok := typedMatch(id, c.Posting()); ok && in.Judge.Meaningful(m.Type) {
			out = append(out, m)
		}
	}
	return out, nil
}
