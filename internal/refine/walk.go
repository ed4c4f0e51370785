package refine

import (
	"hash/maphash"
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
//     document order and admits each partition's SLCA results into the
//     scan's own top-2K SortedList, the paper's RQSortedList. A lone walk
//     (PartitionTopK) is one scan, and its list is the answer. A shard
//     scan (ScanShard) runs the same loop over one shard, and also prunes
//     against a pruning bound shared with the sibling shard scans.
//   - Pool: RunScans runs a walk's shard scans, one goroutine per shard,
//     handing each the walk's shared state (Walk): the bound and the
//     dynamic-program memo.
//   - Merge: MergeScans takes the union of the scans' lists, keeps the 2K
//     smallest candidates, and merges each kept candidate's per-shard
//     result runs in document order.
//
// A shard is a disjoint partition subset of one corpus with global Dewey
// labels, which the shard router resolves against a replica set. A
// candidate's results are its meaningful SLCAs in the partitions whose
// dynamic-program output surfaces it. The SortedList's order is total, by
// (dSim, key), so a walk's list holds the 2K smallest candidates with a
// result, each with all of its results, in whatever order the partitions
// come. A candidate among the 2K smallest of the whole corpus is therefore
// among the 2K smallest of every shard it has results in, with all of
// that shard's results; and a candidate a scan skipped has 2K smaller
// ones with results in some scan's list. So the union of the shard lists,
// cut to 2K, is the lone walk's list, for every split. The memo returns
// exactly what the dynamic program would, so sharing it across shards
// preserves exactness too.

// pruneBound publishes the smallest full-local-list worst dissimilarity
// any scan of one walk has seen — an upper bound on the dissimilarity of
// the lone walk's 2K-th candidate. A candidate above it has 2K smaller
// ones with results in one scan's list, so it cannot enter the final
// top-2K, and scans skip its SLCA computations. One at the bound may still
// win on its key, so it is not pruned. A nil bound (a walk of one scan)
// never prunes and is never lowered.
type pruneBound struct {
	bits atomic.Uint64 // math.Float64bits of the current bound
}

// newPruneBound returns a bound initialized to +Inf (nothing prunable yet).
func newPruneBound() *pruneBound {
	b := &pruneBound{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

func (b *pruneBound) get() float64 {
	if b == nil {
		return math.Inf(1)
	}
	return math.Float64frombits(b.bits.Load())
}

// lower tightens the bound to v if v is smaller.
func (b *pruneBound) lower(v float64) {
	if b == nil {
		return
	}
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= v || b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Walk is the state every scan of one walk shares: the pruning bound and
// the dynamic-program memo. RunScans makes one per shard walk and hands it
// to each job; the jobs must scan the same keywords ks for the same query,
// rules and K, or the memo would mix their outputs.
type Walk struct {
	bound *pruneBound // nil for a walk of one shard
	memo  dpMemo
}

// memoSeed seeds the hash dpMemo keys its entries by.
var memoSeed = maphash.MakeSeed()

// dpMemo memoises the top-2K dynamic program (line 10) for one walk. Its
// output depends only on Q, the rules, K and the partition's available
// keyword set T; all but T are fixed for the walk, so the memo is keyed by
// T's bitset over the scan keywords, which every scan of a walk shares.
// Each mask is computed once, by the first scan that meets it; a sibling
// scan meeting it meanwhile waits on the entry.
//
// A miss allocates nothing of its own: entries are cut from an arena whose
// chunks never move (sync.Once must not be copied), the map is keyed by
// the mask's hash, and the masks are kept back to back in one buffer,
// where an entry's offset resolves a collision. A lone walk's memo lives
// in its Scan, and reset keeps all three for the next walk.
type dpMemo struct {
	mu      sync.Mutex
	byHash  map[uint64]*dpEntry // the first entry of each hash
	entries arena[dpEntry]
	masks   []byte
	n       int // entries made
}

type dpEntry struct {
	once  sync.Once
	cands []dpCand
	off   int      // the entry's mask is masks[off:off+len(mask)]
	next  *dpEntry // the next entry of the same hash
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
// available scan keywords are mask, running it on x, the calling scan's
// scratch, on the first request.
func (m *dpMemo) get(in Input, k int, ks []string, mask []byte, x *dpScratch) []dpCand {
	h := maphash.Bytes(memoSeed, mask)
	m.mu.Lock()
	if m.byHash == nil {
		m.byHash = make(map[uint64]*dpEntry)
	}
	e := m.byHash[h]
	for e != nil && string(m.masks[e.off:e.off+len(mask)]) != string(mask) {
		e = e.next
	}
	if e == nil {
		e = &m.entries.take(1)[0]
		e.off, e.next = len(m.masks), m.byHash[h]
		m.masks = append(m.masks, mask...)
		m.byHash[h] = e
		m.n++
	}
	m.mu.Unlock()
	e.once.Do(func() { e.cands = x.runDP(in, k, ks, mask) })
	return e.cands
}

// reset empties the memo for the next walk, keeping its map, entries and
// mask buffer.
func (m *dpMemo) reset() {
	clear(m.byHash)
	m.entries.reset()
	m.masks, m.n = m.masks[:0], 0
}

// runs reports how many masks the memo has run the dynamic program for:
// each entry is created by a caller that runs it at once.
func (m *dpMemo) runs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// runDP runs the top-2K dynamic program over the scan keywords in mask.
// The universe is ks in sorted order, fixed by the scratch's first run in
// the walk.
func (x *dpScratch) runDP(in Input, k int, ks []string, mask []byte) []dpCand {
	if len(x.cols) == 0 {
		x.words = append(x.words[:0], ks...)
		slices.Sort(x.words)
		for _, kw := range x.words {
			x.cols = append(x.cols, slices.Index(ks, kw))
		}
		x.w = max(1, (len(ks)+63)/64)
		x.sets = resize(x.sets, 2*x.w)
	}
	clear(x.sets[x.w : 2*x.w])
	for b, col := range x.cols {
		if maskHas(mask, col) {
			x.admit(b)
		}
	}
	return x.emit(x.run(in.Query, in.Rules, 4*k), 2*k)
}

// Scan is one run of the partition loop over one index: its own top-2K
// list, its work counts and the scratch its SLCA calls, dynamic-program
// runs and co-occurrence counting reuse. It is also the query state a
// walk borrows from the free list (state.go): a lone walk's outcome, and a
// merge's, live in a Scan until Release.
type Scan struct {
	walk *Walk
	own  Walk // a lone walk's shared state: no bound, and its memo
	list SortedList
	out  TopKOutcome

	partitions   int
	slcaCalls    int
	slcaPostings int64
	rqGenerated  int
	rqPruned     int

	lists []*index.List
	w     partitionWalker
	slca  slcaScratch
	dp    dpScratch
	co    coCounter
	runs  [][]Match // a merge's runs of one candidate
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
}

// ScanJob produces one scan of a walk. walk is the state the pool shares
// across the walk's scans. The scan it returns belongs to the caller, who
// hands it to MergeScans or releases it.
type ScanJob func(walk *Walk) (*Scan, error)

// ScanShard is the scan of a shard source: every partition of in.Index,
// which holds a disjoint partition subset of the corpus under global Dewey
// labels. in is the corpus-wide query input with Index swapped for the
// shard's own; ks is the scan keyword set computed once against the
// corpus-wide index (Input.ScanKeywords), so every shard scans the same
// keyword columns and can share the walk's memo. Degradable budget expiry
// ends the scan early (only fully-processed partitions contribute); a
// hard cancellation or storage fault returns the error. The scan is
// borrowed from the free list; the caller passes it to MergeScans, or
// releases it.
func ScanShard(in Input, k int, ks []string, walk *Walk) (*Scan, error) {
	s := getScan()
	if err := s.scan(in, max(k, 1), ks, walk); err != nil {
		s.Release()
		return nil, err
	}
	return s, nil
}

// scan is the walk's one partition loop. For each partition it charges the
// budget, counts its co-occurrences, takes the top-2K dynamic program's
// output (line 10) for the partition's keyword mask from the walk's memo,
// and computes SLCA results for every refined query that might still
// enter the top-2K, judged against the scan's list and the walk's shared
// bound; the rest are skipped — the paper's advantage (2). Results go
// straight into the list. The budget is checked at partition granularity:
// a partition is either fully processed or not at all, so a degraded walk
// is a clean prefix. A degradable stop returns nil; a hard cancellation
// returns the context error.
func (s *Scan) scan(in Input, k int, ks []string, walk *Walk) error {
	lists, err := s.scanLists(in, ks)
	if err != nil {
		return err
	}
	s.walk = walk
	s.list.reset(2 * k)
	s.co.init(in, ks)
	sorted, bound := &s.list, walk.bound
	w := &s.w
	w.open(lists)
	defer w.close()
	for w.next() {
		if !in.Budget.Charge(w.spanPostings()) {
			return in.Budget.Err()
		}
		s.co.count(w)
		cands := walk.memo.get(in, k, ks, w.mask, &s.dp)
		s.rqGenerated += len(cands)
		for j := range cands {
			c := &cands[j]
			item := sorted.byKey[c.key]
			if item == nil && !(c.rq.DSim <= bound.get() && sorted.Qualifies(c.rq.DSim, c.key)) {
				s.rqPruned++
				continue
			}
			matches, postings := s.slca.partitionSLCA(in, c, w.cols)
			s.slcaCalls++
			s.slcaPostings += int64(postings)
			switch {
			case len(matches) == 0:
			case item != nil:
				sorted.extend(item, matches)
			case sorted.insert(c.rq, c.key, matches) != nil:
				// Every rule and deletion costs more than 0, so Q is the one
				// candidate at dSim 0 and, once it holds results, first in
				// every list: the engine answers Q and ranks nothing, and
				// the counts are no longer needed.
				if c.rq.DSim == 0 && c.rq.SameKeywords(in.Query) {
					s.co.answered = true
				}
				if sorted.Full() {
					bound.lower(sorted.Worst())
				}
			}
		}
		s.partitions++
	}
	return nil
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
// order on the caller's goroutine; otherwise each job but the first gets a
// goroutine of its own, and the first runs on the caller's.
func RunScans(b *Budget, jobs []ScanJob) ([]*Scan, []error) {
	scans := make([]*Scan, len(jobs))
	errs := make([]error, len(jobs))
	walk := &Walk{}
	if len(jobs) > 1 {
		walk.bound = newPruneBound()
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

// MergeScans is the walk's one merge: the union of the scans' lists, cut
// to the 2K smallest candidates by (dSim, key), each with its result runs
// from every scan merged in document order. The scans' items go through
// one SortedList: a candidate it holds takes each further run, and one it
// refused or evicted has 2K smaller candidates before it for good. So the
// order in which scans are passed does not matter; they must all come
// from one RunScans. in is the walk-wide input (its Budget supplies the
// degradation reason). Nil scans — failed shards — contribute nothing;
// the caller tags the outcome.
//
// The outcome lives in a Scan of its own, borrowed from the free list:
// the kept candidates' results and IDs are copied into it, and every scan
// passed in is released once merged.
func MergeScans(in Input, k int, scans []*Scan) *TopKOutcome {
	q := getMergeScan(len(scans))
	q.list.reset(2 * max(k, 1))
	out := &q.out
	*out = TopKOutcome{st: q}
	for _, s := range scans {
		if s == nil {
			continue
		}
		if out.CoCounts == nil {
			q.co.copyFrom(&s.co.CoCounts)
			out.CoCounts = &q.co.CoCounts
		} else {
			out.CoCounts.add(&s.co.CoCounts)
		}
		s.addTo(out)
		for _, it := range s.list.settle(&s.slca.slab) {
			q.list.insert(it.RQ, it.key, nil)
		}
	}
	for _, it := range q.list.items {
		runs, total := q.runs[:0], 0
		for _, s := range scans {
			if s == nil {
				continue
			}
			if sit := s.list.byKey[it.key]; sit != nil {
				runs, total = append(runs, sit.Results), total+len(sit.Results)
			}
		}
		it.Results, q.runs = q.mergeRuns(runs, total), runs
	}
	for _, s := range scans {
		s.Release()
	}
	out.Candidates = q.list.items
	out.markDegraded(in.Budget)
	return out
}

// mergeRuns merges one candidate's result runs, each in document order and
// from disjoint partitions, into one run of total results in document
// order, cut from the scan's result slab with every ID copied into its ID
// slab: the runs may live in scans about to be released. For range
// shards one run follows the other.
func (s *Scan) mergeRuns(runs [][]Match, total int) []Match {
	out := s.slca.slab.take(total)
	for i := range out {
		b := 0
		for j := 1; j < len(runs); j++ {
			if len(runs[j]) > 0 && (len(runs[b]) == 0 || dewey.Compare(runs[j][0].ID, runs[b][0].ID) < 0) {
				b = j
			}
		}
		m := runs[b][0]
		runs[b] = runs[b][1:]
		id := s.slca.ids.take(len(m.ID))
		copy(id, m.ID)
		out[i] = Match{ID: id, Type: m.Type}
	}
	return out
}
