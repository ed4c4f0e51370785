package refine

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
)

// This file is Algorithm 2's one walk, built from three parts.
//
//   - Scan: scanRange walks a contiguous, document-ordered run of partitions
//     of one index's keyword lists and records, per partition, the refined
//     queries the dynamic program surfaced and the SLCA results it
//     computed. It prunes against its own top-2K list and a PruneBound
//     shared with the sibling scans of the same walk, and takes the
//     dynamic program's output from a memo the sibling scans share too.
//   - Pool: RunScans runs N scans on a bounded set of goroutines, handing
//     each the walk's shared state (Walk).
//   - Merge: MergeScans replays every scan's records in global document
//     order — partitions interleave across scans under a k-way merge on
//     their labels — through one fresh SortedList, the exact one-scan
//     admission logic. An SLCA a scan skipped but the replay needs (a rare
//     race near the shared bound) is recomputed from the owning scan's
//     lists.
//
// Two kinds of source feed the pool: contiguous ranges of one index
// (PartitionTopK splits the document by posting mass) and shards, each a
// disjoint partition subset of one corpus with global Dewey labels
// (ScanShard, which the shard router resolves against a replica set). The
// outcome is identical for every split: the same partitions, in the same
// order, through the same SortedList. The shared bound is only a
// work-avoidance hint, so sharing it across any split preserves exactness;
// the memo returns exactly what the dynamic program would, so sharing it
// does too.

// minPostingsPerRange keeps tiny documents on one range: below this much
// posting mass per would-be range, goroutine and merge overhead dominates
// any overlap win.
const minPostingsPerRange = 256

// rangeOversplit is how many ranges each worker gets on average; splitting
// finer than the worker count lets the pool balance skewed partitions.
const rangeOversplit = 4

// rangeBounds returns the Dewey interval [lo, hi) of range r; nil means
// unbounded on that side.
func rangeBounds(pivots []dewey.ID, r int) (lo, hi dewey.ID) {
	if r > 0 {
		lo = pivots[r-1]
	}
	if r < len(pivots) {
		hi = pivots[r]
	}
	return lo, hi
}

// splitPivots picks up to n-1 partition-root labels splitting the combined
// posting mass of the lists into roughly equal contiguous ranges. Pivot
// candidates are the partition roots of the postings at fractional
// positions of each list, so each costs O(1) and ranges align with
// partition boundaries by construction. It returns nil when the lists
// cannot support more than one range (e.g. all mass in one partition).
func splitPivots(lists []*index.List, n int) []dewey.ID {
	if n <= 1 {
		return nil
	}
	var cands []dewey.ID
	for j := 1; j < n; j++ {
		for _, l := range lists {
			if l.Len() == 0 {
				continue
			}
			idx := l.Len() * j / n
			if p, ok := l.At(idx).ID.Partition(); ok {
				cands = append(cands, p)
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return dewey.Compare(cands[i], cands[j]) < 0 })
	uniq := cands[:0]
	for i, p := range cands {
		if i == 0 || !dewey.Equal(cands[i-1], p) {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) <= n-1 {
		return uniq
	}
	// More distinct boundaries than ranges: sample evenly.
	out := make([]dewey.ID, 0, n-1)
	for i := 1; i < n; i++ {
		p := uniq[len(uniq)*i/n]
		if len(out) == 0 || !dewey.Equal(out[len(out)-1], p) {
			out = append(out, p)
		}
	}
	return out
}

// PruneBound publishes the smallest full-local-list worst dissimilarity
// any scan of one walk has seen — a lower envelope of the one-scan 2K-th
// candidate bound. Candidates at or above it cannot enter the final top-2K,
// so scans skip their SLCA computations. A nil bound (a walk of one scan)
// never prunes and is never lowered.
type PruneBound struct {
	bits atomic.Uint64 // math.Float64bits of the current bound
}

// NewPruneBound returns a bound initialized to +Inf (nothing prunable yet).
func NewPruneBound() *PruneBound {
	b := &PruneBound{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

func (b *PruneBound) get() float64 {
	if b == nil {
		return math.Inf(1)
	}
	return math.Float64frombits(b.bits.Load())
}

// lower tightens the bound to v if v is smaller, reporting whether it did.
func (b *PruneBound) lower(v float64) bool {
	if b == nil {
		return false
	}
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= v {
			return false
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return true
		}
	}
}

// Walk is the state every scan of one walk shares: the pruning bound and
// the dynamic-program memo. RunScans makes one per walk and hands it to
// each job; the jobs must scan the same keywords ks for the same query,
// rules and K, or the memo would mix their outputs.
type Walk struct {
	bound *PruneBound // nil for a walk of one scan
	memo  dpMemo
}

// dpMemo memoises the top-2K dynamic program (line 10) for one walk. Its
// output depends only on Q, the rules, K and the partition's available
// keyword set T; all but T are fixed for the walk, so the memo is keyed by
// T's bitset over the scan keywords, which every scan of a walk shares.
// Each mask is computed once, by the first scan that meets it; a sibling
// scan meeting it meanwhile waits on the entry.
type dpMemo struct {
	mu     sync.Mutex
	byMask map[string]*dpEntry
}

type dpEntry struct {
	once  sync.Once
	cands []dpCand
}

// dpCand is one refined query of a memoised dynamic-program run, with what
// each partition surfacing it would otherwise recompute: its identity key
// and the columns of its keywords among the scan keywords.
type dpCand struct {
	rq   RQ
	key  string
	cols []int
}

// get returns the dynamic program's output for the partitions whose
// available scan keywords are mask, running it on the first request.
func (m *dpMemo) get(in Input, k int, ks []string, mask []byte) []dpCand {
	m.mu.Lock()
	e := m.byMask[string(mask)]
	if e == nil {
		e = &dpEntry{}
		m.byMask[string(mask)] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.cands = runDP(in, k, ks, mask) })
	return e.cands
}

// runs reports how many masks the memo has run the dynamic program for:
// each entry is created by a caller that runs it at once.
func (m *dpMemo) runs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byMask)
}

// runDP runs the top-2K dynamic program (TopRQs) over the scan keywords
// in mask.
func runDP(in Input, k int, ks []string, mask []byte) []dpCand {
	avail := make(map[string]bool, len(ks))
	for i, kw := range ks {
		if maskHas(mask, i) {
			avail[kw] = true
		}
	}
	rqs := TopRQs(in.Query, avail, in.Rules, 2*k)
	cands := make([]dpCand, len(rqs))
	for j, rq := range rqs {
		cols := make([]int, len(rq.Keywords))
		for c, kw := range rq.Keywords {
			cols[c] = slices.Index(ks, kw)
		}
		cands[j] = dpCand{rq: rq, key: rq.Key(), cols: cols}
	}
	return cands
}

// rqRecord is one refined query surfaced in one partition: a pointer into
// the walk's memoised dynamic-program output and the partition's
// meaningful SLCA results — nil when the scan skipped the computation and
// the merge must recompute it on demand.
type rqRecord struct {
	c       *dpCand
	results []Match
}

// partitionRecord is one scanned partition that left records: its root
// label and its records, Scan.rqs[first:end].
type partitionRecord struct {
	pid        dewey.ID
	first, end int
}

// Scan is the record of one scan, ready to merge. The input and lists are
// retained because bound-skipped SLCA recomputations during the merge must
// run against the lists of the scan that owns the partition.
type Scan struct {
	in    Input
	lists []*index.List
	walk  *Walk
	recs  []partitionRecord
	rqs   []rqRecord

	partitions   int
	slcaCalls    int
	slcaPostings int64
	rqGenerated  int
	rqPruned     int
	boundUpdates int

	spans []span // merge-time scratch for recomputations
}

// Partitions reports how many partitions the scan fully processed.
func (s *Scan) Partitions() int { return s.partitions }

// ScanJob produces one scan of a walk. walk is the state the pool shares
// across the walk's scans.
type ScanJob func(walk *Walk) (*Scan, error)

// ScanShard is the scan of a shard source: every partition of in.Index,
// which holds a disjoint partition subset of the corpus under global Dewey
// labels. in is the corpus-wide query input with Index swapped for the
// shard's own; ks is the scan keyword set computed once against the
// corpus-wide index (Input.ScanKeywords), so every shard scans the same
// keyword columns and can share the walk's memo. Degradable budget expiry
// truncates the record (only fully-processed partitions contribute); a
// hard cancellation or storage fault returns the error.
func ScanShard(in Input, k int, ks []string, walk *Walk) (*Scan, error) {
	if k < 1 {
		k = 1
	}
	lists, err := scanLists(in, ks)
	if err != nil {
		return nil, err
	}
	return scanRange(in, k, ks, lists, nil, nil, walk)
}

// scanRange is the walk's one partition loop, over the partitions inside
// [lo, hi) (nil bounds are open). For each partition it charges the
// budget, takes the top-2K dynamic program's output (line 10) for the
// partition's keyword mask from the walk's memo, and computes SLCA
// results for every refined query that might still enter the global
// top-2K, judged against the scan's own list and the shared bound; the
// rest are skipped — the paper's advantage (2). The budget is checked at
// partition granularity: a partition is either fully recorded or not at
// all, so a degraded walk is a clean prefix of each scan.
//
// The record keeps only what the merge can act on: candidates with
// results, and — when sibling scans share the bound — skipped candidates
// the merge may have to recompute. A candidate computed empty changes
// nothing on replay, and a lone scan's replay repeats its own admission
// decisions exactly, so it never recomputes what the scan skipped.
func scanRange(in Input, k int, ks []string, lists []*index.List, lo, hi dewey.ID, walk *Walk) (*Scan, error) {
	s := &Scan{in: in, lists: lists, walk: walk}
	bound := walk.bound
	local := NewSortedList(2 * k)
	w := newPartitionWalker(lists, lo, hi)
	defer w.close()
	for {
		pid, ok := w.next()
		if !ok {
			return s, nil
		}
		// A hard cancellation aborts with the context error; a degradable
		// stop truncates the record here.
		if !in.Budget.Charge(w.spanPostings()) {
			if err := in.Budget.Err(); err != nil {
				return nil, err
			}
			return s, nil
		}
		cands := walk.memo.get(in, k, ks, w.mask)
		s.rqGenerated += len(cands)
		first := len(s.rqs)
		for j := range cands {
			c := &cands[j]
			item := local.byKey[c.key]
			if item == nil && !(c.rq.DSim < bound.get() && local.Qualifies(c.rq.DSim)) {
				s.rqPruned++
				if bound != nil {
					s.rqs = append(s.rqs, rqRecord{c: c})
				}
				continue
			}
			matches, postings, err := partitionSLCA(in, c, lists, w.spans)
			if err != nil {
				return nil, err
			}
			s.slcaCalls++
			s.slcaPostings += int64(postings)
			if len(matches) == 0 {
				continue
			}
			s.rqs = append(s.rqs, rqRecord{c: c, results: matches})
			if item != nil {
				continue
			}
			if local.insert(c.rq, c.key, nil) != nil && local.Full() && bound.lower(local.Worst()) {
				s.boundUpdates++
			}
		}
		s.partitions++
		if len(s.rqs) > first {
			s.recs = append(s.recs, partitionRecord{pid: pid.Clone(), first: first, end: len(s.rqs)})
		}
	}
}

// PoolSize is the number of goroutines RunScans runs jobs scans on for a
// requested worker bound: at most one per scan, at least one — and exactly
// one under a posting limit. A posting budget is a deterministic work bound
// only when it is charged in one fixed sequence, so a posting-limited walk
// runs its scans one at a time, in the order given; sources given in
// document order (ranges, range-split shards) then stop exactly where one
// scan over the whole document would.
func PoolSize(b *Budget, workers, jobs int) int {
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 || b.postingLimited() {
		workers = 1
	}
	return workers
}

// RunScans is the walk's one pool: it runs jobs on PoolSize(b, workers,
// len(jobs)) goroutines, taking them in order, with one Walk — pruning
// bound and dynamic-program memo — shared across them, and returns each
// job's scan and error by index. A pool of one runs the jobs on the
// caller's goroutine.
func RunScans(b *Budget, workers int, jobs []ScanJob) ([]*Scan, []error) {
	scans := make([]*Scan, len(jobs))
	errs := make([]error, len(jobs))
	walk := &Walk{memo: dpMemo{byMask: make(map[string]*dpEntry)}}
	if len(jobs) > 1 {
		walk.bound = NewPruneBound()
	}
	workers = PoolSize(b, workers, len(jobs))
	if workers == 1 {
		for i, job := range jobs {
			scans[i], errs[i] = job(walk)
		}
		return scans, errs
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				scans[i], errs[i] = jobs[i](walk)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return scans, errs
}

// MergeScans is the walk's one merge: it replays the scans' partition
// records in global document order through a fresh SortedList — the exact
// one-scan admission logic — and returns the walk's outcome. The order in
// which scans are passed does not matter; they must all come from one
// RunScans. in is the walk-wide input (its Budget supplies the degradation
// reason). Nil scans — failed shards — contribute nothing; the caller tags
// the outcome.
func MergeScans(in Input, k int, scans []*Scan) (*TopKOutcome, error) {
	if k < 1 {
		k = 1
	}
	out := &TopKOutcome{Workers: 1}
	sorted := NewSortedList(2 * k)
	type cursor struct {
		s *Scan
		i int
	}
	var cur []cursor
	for _, s := range scans {
		if s == nil {
			continue
		}
		out.DPRuns = s.walk.memo.runs()
		out.Partitions += s.partitions
		out.SLCACalls += s.slcaCalls
		out.SLCAPostings += s.slcaPostings
		out.RQGenerated += s.rqGenerated
		out.RQPruned += s.rqPruned
		out.BoundUpdates += s.boundUpdates
		if len(s.recs) > 0 {
			cur = append(cur, cursor{s: s})
		}
	}
	for len(cur) > 0 {
		// The replay only touches recorded work plus occasional in-memory
		// SLCA recomputes, so the degradable budget is ignored here — but a
		// hard cancellation still aborts.
		if err := in.Budget.Err(); err != nil {
			return nil, err
		}
		best := 0
		for i := 1; i < len(cur); i++ {
			if dewey.Compare(cur[i].s.recs[cur[i].i].pid, cur[best].s.recs[cur[best].i].pid) < 0 {
				best = i
			}
		}
		c := &cur[best]
		if err := c.s.replay(c.s.recs[c.i], sorted, out); err != nil {
			return nil, err
		}
		c.i++
		if c.i == len(c.s.recs) {
			cur = append(cur[:best], cur[best+1:]...)
		}
	}
	out.Candidates = append(out.Candidates, sorted.Items()...)
	out.markDegraded(in.Budget)
	return out, nil
}

// replay applies one recorded partition to the merge's SortedList with
// exactly the one-scan admission logic: membership and qualification are
// judged against the replay list, and SLCA results the scan skipped (its
// bound was a lower envelope of the replay's) are recomputed here from the
// same partition sublists.
func (s *Scan) replay(rec partitionRecord, sorted *SortedList, out *TopKOutcome) error {
	spansReady := false
	for _, rr := range s.rqs[rec.first:rec.end] {
		c := rr.c
		item := sorted.byKey[c.key]
		if item == nil && !sorted.Qualifies(c.rq.DSim) {
			continue
		}
		res := rr.results
		if res == nil {
			if !spansReady {
				if s.spans == nil {
					s.spans = make([]span, len(s.lists))
				}
				partitionSpans(s.lists, rec.pid, s.spans)
				spansReady = true
			}
			var err error
			var postings int
			res, postings, err = partitionSLCA(s.in, c, s.lists, s.spans)
			if err != nil {
				return err
			}
			out.SLCACalls++
			out.SLCAPostings += int64(postings)
		}
		if len(res) == 0 {
			continue
		}
		if item != nil {
			item.Results = append(item.Results, res...)
		} else {
			sorted.insert(c.rq, c.key, res)
		}
	}
	return nil
}

// partitionSpans reconstructs the sublist spans of a partition. Inside the
// walk the span start is the cursor position, but by the time a partition
// is visited every posting before its root has been consumed, so the
// cursor equals SeekGE(pid) — two binary searches recover the same spans.
func partitionSpans(lists []*index.List, pid dewey.ID, spans []span) {
	pidEnd := pid.Next()
	for i, l := range lists {
		spans[i] = span{start: l.SeekGE(pid), end: l.SeekGE(pidEnd)}
	}
}
