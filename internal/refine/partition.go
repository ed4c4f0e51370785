package refine

import (
	"strconv"
	"time"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
	"xrefine/internal/obs"
	"xrefine/internal/slca"
)

// TopKOutcome is the result of the partition-based and short-list eager
// algorithms: up to 2K refined-query candidates by dissimilarity, each with
// its accumulated meaningful SLCA results. The caller (the engine) applies
// the full ranking model (Formula 10) to produce the final top K — the
// paper's line 19.
type TopKOutcome struct {
	// Candidates holds refined queries with at least one meaningful
	// result, in ascending dissimilarity.
	Candidates []*Item
	// Partitions counts document partitions actually visited, an
	// efficiency observable for the experiments.
	Partitions int
	// SLCACalls counts delegated SLCA computations. A walk split into
	// several scans may count more calls than one scan: each scan prunes
	// against a bound that converges on the one-scan bound but can
	// transiently admit extra candidates.
	SLCACalls int
	// Workers is the number of goroutines the walk's scans ran on: 1 for
	// a one-scan walk.
	Workers int
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
	// walk's scans, rather than one per partition.
	DPRuns int
	// RQPruned counts candidates whose SLCA computation the top-2K
	// dissimilarity bound skipped — the paper's key optimization made
	// observable.
	RQPruned int
	// BoundUpdates counts tightenings of the pruning bound shared by the
	// scans of a split walk (a one-scan walk's bound lives implicitly in
	// its sorted list and reports 0).
	BoundUpdates int
	// SLCAPostings totals the postings handed to delegated SLCA
	// computations — the work the SLCA layer actually received.
	SLCAPostings int64
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
// optimization), and compute results with any SLCA algorithm, restricted to
// the partition's sublists. Each list is traversed exactly once
// (Theorem 2).
//
// It is the one walk of walk.go over ranges of one index: load the lists,
// split the document into contiguous partition ranges (a single range when
// in.Parallelism <= 1, under a posting limit, or when the lists are below
// the per-range posting floor), scan the ranges on the pool and merge them
// in document order. The output is identical for every split, and the
// ranges share one dynamic-program memo.
func PartitionTopK(in Input, k int) (*TopKOutcome, error) {
	if k < 1 {
		k = 1
	}
	ks := in.scanKeywords()
	if len(ks) == 0 {
		return &TopKOutcome{Workers: 1}, nil
	}
	lists, err := scanLists(in, ks)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, l := range lists {
		total += l.Len()
	}
	workers := PoolSize(in.Budget, in.Parallelism, total/minPostingsPerRange)
	var pivots []dewey.ID
	if workers > 1 {
		pivots = splitPivots(lists, workers*rangeOversplit)
	}
	jobs := make([]ScanJob, len(pivots)+1)
	for r := range jobs {
		lo, hi := rangeBounds(pivots, r)
		jobs[r] = func(walk *Walk) (*Scan, error) {
			if len(jobs) == 1 {
				return scanRange(in, k, ks, lists, lo, hi, walk)
			}
			// One span per range; ranges overlap in time, so their
			// durations are not additive with the sequential stage spans.
			rin := in
			rin.Trace = in.Trace.StartChild("range-" + strconv.Itoa(r))
			defer rin.Trace.End()
			s, err := scanRange(rin, k, ks, lists, lo, hi, walk)
			if s != nil {
				rin.Trace.SetInt("partitions", int64(s.Partitions()))
				rin.Trace.SetInt("slca_calls", int64(s.slcaCalls))
			}
			return s, err
		}
	}
	workers = PoolSize(in.Budget, workers, len(jobs))
	scans, errs := RunScans(in.Budget, workers, jobs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var ms *obs.Span
	if len(scans) > 1 {
		ms = in.Trace.StartChild("merge")
	}
	out, err := MergeScans(in, k, scans)
	ms.End()
	if err != nil {
		return nil, err
	}
	out.Workers = workers
	return out, nil
}

// scanLists fetches the inverted list of every scan keyword. Loads go
// through the context-aware index path so a canceled query stops between
// (possibly disk-backed) list loads. Under tracing it records a
// "load-lists" span noting how many lists had to be lazily loaded (vs
// already resident) and the posting mass fetched.
func scanLists(in Input, ks []string) ([]*index.List, error) {
	ctx := in.Budget.Context()
	sp := in.Trace.StartChild("load-lists")
	lists := make([]*index.List, len(ks))
	var loaded, postings int64
	for i, kw := range ks {
		l, wasLoaded, err := in.Index.ListCtxInfo(ctx, kw)
		if err != nil {
			sp.End()
			return nil, err
		}
		if wasLoaded {
			loaded++
		}
		postings += int64(l.Len())
		// A private view per query: block-cache locality of this scan is
		// isolated from every other query sharing the resident list.
		lists[i] = l.View()
	}
	if sp != nil {
		sp.SetInt("lists", int64(len(ks)))
		sp.SetInt("loaded", loaded)
		sp.SetInt("postings", postings)
		sp.End()
	}
	return lists, nil
}

// span is a half-open index interval into a keyword list.
type span struct{ start, end int }

// partitionWalker advances a cursor set over the keyword lists one document
// partition at a time (the getKLPartition loop of Algorithm 2, lines 5-8),
// restricted to the Dewey interval [lo, hi) when bounds are given. Each
// list is read through a pooled block cursor, so the walk decodes each
// compressed block at most once per list and produces no per-posting
// garbage; close() must run when the walk ends to recycle the decode
// buffers. Its spans, mask and label buffers are likewise reused across
// partitions so the hot loop does not allocate per partition visited.
type partitionWalker struct {
	lists  []*index.List
	curs   []*index.Cursor
	limits []int
	spans  []span
	// mask is the partition's available-keyword set T as a bitset over
	// the scan keywords: bit i is set when lists[i] has a posting in it.
	mask   []byte
	v      dewey.ID // owned copy of the current minimum head (reused)
	pid    dewey.ID // the current partition's root label (reused)
	pidEnd dewey.ID // pid.Next(), the partition's exclusive bound (reused)
}

// newPartitionWalker positions cursors at the first posting >= lo (or the
// list start when lo is nil) and bounds the walk at the first posting >= hi
// (or the list end when hi is nil). lo and hi must be partition roots so no
// partition straddles two walkers.
func newPartitionWalker(lists []*index.List, lo, hi dewey.ID) *partitionWalker {
	w := &partitionWalker{
		lists:  lists,
		curs:   make([]*index.Cursor, len(lists)),
		limits: make([]int, len(lists)),
		spans:  make([]span, len(lists)),
		mask:   make([]byte, (len(lists)+7)/8),
	}
	for i, l := range lists {
		c := l.NewCursor()
		w.curs[i] = c
		if lo != nil {
			c.SeekGE(lo)
		}
		if hi != nil {
			w.limits[i] = l.SeekGE(hi)
		} else {
			w.limits[i] = l.Len()
		}
		if w.limits[i] < c.Pos() {
			w.limits[i] = c.Pos()
		}
	}
	return w
}

// maskHas reports whether bit i of a keyword mask is set.
func maskHas(mask []byte, i int) bool { return mask[i/8]&(1<<(i%8)) != 0 }

// close recycles the walker's cursor decode buffers; the walker (and any
// ID it handed out by alias) must not be used afterwards.
func (w *partitionWalker) close() {
	for _, c := range w.curs {
		c.Close()
	}
}

// spanPostings returns the posting mass of the current partition — what
// the budget charges per partition visited.
func (w *partitionWalker) spanPostings() int {
	n := 0
	for _, s := range w.spans {
		n += s.end - s.start
	}
	return n
}

// next advances to the next non-empty partition, filling w.spans and
// w.mask with the partition's sublists, and returns its root label. The
// label is w's own buffer, valid until the next call. It returns false
// when every cursor reached its limit. Postings at the document root
// belong to no partition and are skipped (the root is never a meaningful
// result).
func (w *partitionWalker) next() (dewey.ID, bool) {
	for {
		// Smallest unconsumed node across lists (paper line 5). The IDs a
		// cursor yields alias its reusable decode buffer, so the running
		// minimum is copied into w.v — a later read that decodes a new
		// block would otherwise recycle the memory under the comparison.
		found := false
		for i, c := range w.curs {
			if c.Pos() >= w.limits[i] {
				continue
			}
			if id := c.ID(); !found || dewey.Compare(id, w.v) < 0 {
				w.v = append(w.v[:0], id...)
				found = true
			}
		}
		if !found {
			return nil, false
		}
		v := w.v
		if len(v) < 2 {
			for i, c := range w.curs {
				if c.Pos() < w.limits[i] && dewey.Equal(c.ID(), v) {
					c.Next()
				}
			}
			continue
		}
		// v.Partition() and its Next(), without the two clones.
		w.pid = append(w.pid[:0], v[:2]...)
		w.pidEnd = append(w.pidEnd[:0], w.pid...)
		w.pidEnd[1]++
		clear(w.mask)
		for i, c := range w.curs {
			start := c.Pos()
			end := c.SeekGE(w.pidEnd)
			if end > w.limits[i] {
				// The cursor overshot this walker's range bound; the list
				// is exhausted for this walk, so it is never read again.
				end = w.limits[i]
			}
			w.spans[i] = span{start: start, end: end}
			if end > start {
				w.mask[i/8] |= 1 << (i % 8)
			}
		}
		return w.pid, true
	}
}

// partitionSLCA computes the meaningful SLCAs of c's refined query inside
// one document partition by delegating to the configured SLCA algorithm
// over the partition-restricted sublists, read straight from c's keyword
// columns. The second return is the posting mass the SLCA computation
// consumed (0 when a keyword was absent and the computation was skipped).
// Under tracing, the time spent in the SLCA layer accumulates onto the
// trace span's slca_ns attribute — safe from concurrent workers.
func partitionSLCA(in Input, c *dpCand, lists []*index.List, spans []span) ([]Match, int, error) {
	sub := make([]*index.List, 0, len(c.cols))
	for _, col := range c.cols {
		s := spans[col]
		if s.end <= s.start {
			return nil, 0, nil // keyword absent from partition
		}
		sub = append(sub, lists[col].Sub(s.start, s.end))
	}
	var t0 time.Time
	if in.Trace != nil {
		t0 = time.Now()
	}
	ids := slca.Compute(in.SLCA, sub)
	if in.Trace != nil {
		in.Trace.AddInt("slca_ns", int64(time.Since(t0)))
	}
	return meaningfulMatches(ids, sub[len(sub)-1], in.Judge), slca.Cost(sub), nil
}
