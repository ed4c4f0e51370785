package refine

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
)

// This file is Algorithm 2's one partition loop and the shard path around
// it.
//
//   - Scan: Scan.scan walks every partition of one index's keyword lists in
//     document order. A lone walk (PartitionTopK) admits each partition's
//     SLCA results straight into its own top-2K SortedList, the paper's
//     RQSortedList. A shard scan (ScanShard) runs the same loop in record
//     mode: it prunes against its own list and a PruneBound shared with the
//     sibling shard scans, and records per partition the refined queries
//     surfaced and the results computed.
//   - Pool: RunScans runs a walk's shard scans, one goroutine per shard,
//     handing each the walk's shared state (Walk): the bound and the
//     dynamic-program memo.
//   - Merge: MergeScans replays every scan's records in global document
//     order (partitions interleave across shards under a k-way merge on
//     their labels) through one fresh SortedList, the lone walk's
//     admission logic. An SLCA a scan skipped but the replay needs (its
//     bound was a lower envelope of the replay's) is recomputed from the
//     owning scan's lists.
//
// A shard is a disjoint partition subset of one corpus with global Dewey
// labels, which the shard router resolves against a replica set. The
// outcome is the lone walk's for every split: the same partitions, in the
// same order, through the same admission logic. The shared bound is only a
// work-avoidance hint, and the memo returns exactly what the dynamic
// program would, so sharing either across shards preserves exactness.

// PruneBound publishes the smallest full-local-list worst dissimilarity
// any scan of one walk has seen — a lower envelope of the lone walk's 2K-th
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
// the dynamic-program memo. RunScans makes one per shard walk and hands it
// to each job; the jobs must scan the same keywords ks for the same query,
// rules and K, or the memo would mix their outputs.
type Walk struct {
	bound *PruneBound // nil for a walk of one scan
	memo  dpMemo
}

// newWalk returns the state of a walk with no shared bound.
func newWalk() *Walk { return &Walk{memo: dpMemo{byMask: make(map[string]*dpEntry)}} }

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

// rqRecord is one refined query surfaced in one partition of a shard scan:
// a pointer into the walk's memoised dynamic-program output and the
// partition's meaningful SLCA results — nil when the scan skipped the
// computation and the merge must recompute it on demand.
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

// Scan is one run of the partition loop over one index. A shard scan keeps
// its records for the merge, and its input and lists, because bound-skipped
// SLCA recomputations during the merge must run against the lists of the
// scan that owns the partition.
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

	slca slcaScratch // the SLCA calls of the scan and of its replay
	// reread re-reads the partitions the merge must recompute, through
	// forward cursors: the merge replays a scan's records in document
	// order. Opened on the first recomputation; MergeScans closes it.
	reread *partitionWalker
}

// Partitions reports how many partitions the scan fully processed.
func (s *Scan) Partitions() int { return s.partitions }

// addTo adds the scan's work counts to out.
func (s *Scan) addTo(out *TopKOutcome) {
	out.DPRuns = s.walk.memo.runs()
	out.Partitions += s.partitions
	out.SLCACalls += s.slcaCalls
	out.SLCAPostings += s.slcaPostings
	out.RQGenerated += s.rqGenerated
	out.RQPruned += s.rqPruned
	out.BoundUpdates += s.boundUpdates
}

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
	s := &Scan{in: in, lists: lists, walk: walk}
	if err := s.scan(k, ks, NewSortedList(2*k), true); err != nil {
		return nil, err
	}
	return s, nil
}

// scan is the walk's one partition loop. For each partition it charges the
// budget, takes the top-2K dynamic program's output (line 10) for the
// partition's keyword mask from the walk's memo, and computes SLCA results
// for every refined query that might still enter the top-2K, judged against
// sorted and the walk's shared bound; the rest are skipped — the paper's
// advantage (2). The budget is checked at partition granularity: a
// partition is either fully processed or not at all, so a degraded walk is
// a clean prefix. A degradable stop returns nil; a hard cancellation
// returns the context error.
//
// Without record (a lone walk) the results go straight into sorted, which
// is then the walk's answer. With record (a shard scan) sorted only
// prunes, and the scan keeps what the merge can act on: candidates with
// results, and, when sibling scans share the bound, skipped candidates the
// merge may have to recompute. A candidate computed empty changes nothing
// on replay.
func (s *Scan) scan(k int, ks []string, sorted *SortedList, record bool) error {
	in, bound := s.in, s.walk.bound
	w := newPartitionWalker(s.lists)
	defer w.close()
	for {
		pid, ok := w.next()
		if !ok {
			return nil
		}
		if !in.Budget.Charge(w.spanPostings()) {
			return in.Budget.Err()
		}
		cands := s.walk.memo.get(in, k, ks, w.mask)
		s.rqGenerated += len(cands)
		first := len(s.rqs)
		for j := range cands {
			c := &cands[j]
			item := sorted.byKey[c.key]
			if item == nil && !(c.rq.DSim < bound.get() && sorted.Qualifies(c.rq.DSim)) {
				s.rqPruned++
				if bound != nil {
					s.rqs = append(s.rqs, rqRecord{c: c})
				}
				continue
			}
			matches, postings := s.slca.partitionSLCA(in, c, w.cols)
			s.slcaCalls++
			s.slcaPostings += int64(postings)
			switch {
			case len(matches) == 0:
			case !record && item != nil:
				item.Results = append(item.Results, matches...)
			case !record:
				sorted.insert(c.rq, c.key, matches)
			default:
				s.rqs = append(s.rqs, rqRecord{c: c, results: matches})
				if item == nil && sorted.insert(c.rq, c.key, nil) != nil && sorted.Full() && bound.lower(sorted.Worst()) {
					s.boundUpdates++
				}
			}
		}
		s.partitions++
		if len(s.rqs) > first {
			s.recs = append(s.recs, partitionRecord{pid: pid.Clone(), first: first, end: len(s.rqs)})
		}
	}
}

// PoolSize is the number of goroutines RunScans runs jobs scans on: one per
// scan, and exactly one under a posting limit. A posting budget is a
// deterministic work bound only when it is charged in one fixed sequence,
// so a posting-limited walk runs its scans one at a time, in the order
// given; shards given in document order (range-split shards) then stop
// exactly where a lone walk over the whole document would.
func PoolSize(b *Budget, jobs int) int {
	if jobs < 1 || b.postingLimited() {
		return 1
	}
	return jobs
}

// RunScans is the shard path's one pool: it runs the jobs with one Walk —
// pruning bound and dynamic-program memo — shared across them, and returns
// each job's scan and error by index. When PoolSize is one the jobs run in
// order on the caller's goroutine. Otherwise every job but the first gets
// a goroutine of its own and the first runs on the caller's, so it starts
// first: the merge replays partitions in the order the jobs are given, and
// a bound tightened first by a later job makes the merge recompute SLCAs
// the earlier jobs skipped.
func RunScans(b *Budget, jobs []ScanJob) ([]*Scan, []error) {
	scans := make([]*Scan, len(jobs))
	errs := make([]error, len(jobs))
	walk := newWalk()
	if len(jobs) > 1 {
		walk.bound = NewPruneBound()
	}
	if PoolSize(b, len(jobs)) == 1 {
		for i, job := range jobs {
			scans[i], errs[i] = job(walk)
		}
		return scans, errs
	}
	var wg sync.WaitGroup
	for i := 1; i < len(jobs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scans[i], errs[i] = jobs[i](walk)
		}()
	}
	scans[0], errs[0] = jobs[0](walk)
	wg.Wait()
	return scans, errs
}

// MergeScans is the walk's one merge: it replays the scans' partition
// records in global document order through a fresh SortedList — the lone
// walk's admission logic — and returns the walk's outcome. The order in
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
	defer func() {
		for _, s := range scans {
			if s != nil && s.reread != nil {
				s.reread.close()
				s.reread = nil
			}
		}
	}()
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
		c.s.replay(c.s.recs[c.i], sorted, out)
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
// exactly the lone walk's admission logic: membership and qualification are
// judged against the replay list, and SLCA results the scan skipped (its
// bound was a lower envelope of the replay's) are recomputed here from the
// same partition's postings, re-read through the scan's forward cursors.
func (s *Scan) replay(rec partitionRecord, sorted *SortedList, out *TopKOutcome) {
	read := false
	for _, rr := range s.rqs[rec.first:rec.end] {
		c := rr.c
		item := sorted.byKey[c.key]
		if item == nil && !sorted.Qualifies(c.rq.DSim) {
			continue
		}
		res := rr.results
		if res == nil {
			if !read {
				if s.reread == nil {
					s.reread = newPartitionWalker(s.lists)
				}
				s.reread.seek(rec.pid)
				read = true
			}
			var postings int
			res, postings = s.slca.partitionSLCA(s.in, c, s.reread.cols)
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
}
