package index

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"xrefine/internal/dewey"
	"xrefine/internal/xmltree"
)

// typeStat accumulates the frequent-table row of one (keyword, type) pair.
type typeStat struct {
	df uint32 // f_k^T: T-typed nodes whose subtree contains k
	tf uint32 // tf(k,T): occurrences of k within T-typed subtrees
}

// kwEntry is everything the index knows about one keyword. The list pointer
// is atomic so readers never block on the map while another goroutine is
// paging a different term in from the kvstore; loadMu makes the lazy load
// itself a per-term singleflight (concurrent requests for the same term do
// one disk read, requests for different terms do not serialize).
type kwEntry struct {
	list    atomic.Pointer[List]
	listLen uint32           // posting count, known without loading the list
	stats   map[int]typeStat // keyed by type ID
	loadMu  sync.Mutex       // serializes the lazy load of this term only
}

// Index is the complete access structure for one document: inverted lists
// plus the statistics tables of Section VII. The terms map and every
// statistic are immutable after Build or Load; posting lists of disk-backed
// indexes materialize lazily behind per-term locks. The whole structure is
// safe for concurrent readers.
type Index struct {
	// Types is the node-type registry of the indexed document.
	Types *xmltree.Registry
	// Root is the Dewey label of the document root (always dewey.Root()).
	Root dewey.ID
	// NodeCount is the total number of indexed nodes.
	NodeCount int

	mu       sync.Mutex // guards coCache only
	terms    map[string]*kwEntry
	loader   func(term string) (*List, error) // nil for fully-resident indexes
	nt       []uint32                         // N_T per type ID
	gt       []uint32                         // G_T per type ID
	coCache  map[coKey]int
	partRoot []dewey.ID // document partition roots in order

	// vocabOnce/vocab hold the one vocabulary-derived structure a higher
	// layer attaches (see VocabDerived). Owned here, it is freed with the
	// epoch that built it.
	vocabOnce sync.Once
	vocab     any

	// stat holds the list-access counters, snapshot by OpStats. The struct
	// is shared by pointer across epoch derivations (NewMutator), so
	// metrics keep accumulating across live updates instead of resetting
	// at every epoch swap.
	stat *opStat
}

// opStat carries the list-access counters. Plain atomics so the index
// stays free of observability dependencies; the serving layer bridges them
// into its metrics registry.
type opStat struct {
	resident       atomic.Uint64
	loaded         atomic.Uint64
	postingsLoaded atomic.Uint64
}

// OpStats is a snapshot of the index's list-access counters.
type OpStats struct {
	// ListsResident counts list lookups served from memory.
	ListsResident uint64
	// ListsLoaded counts list lookups that had to page the posting list
	// in from the backing store (lazy loads).
	ListsLoaded uint64
	// PostingsLoaded counts postings materialized by those lazy loads.
	PostingsLoaded uint64
}

// OpStats returns the current list-access counter snapshot.
func (ix *Index) OpStats() OpStats {
	return OpStats{
		ListsResident:  ix.stat.resident.Load(),
		ListsLoaded:    ix.stat.loaded.Load(),
		PostingsLoaded: ix.stat.postingsLoaded.Load(),
	}
}

// ResidentBytes reports the resident memory cost of every posting-list
// core currently loaded (encoded payload + skip table + type table, see
// List.MemoryBytes). Lazily-loadable lists that have not been paged in
// contribute nothing — this is actual footprint, not potential.
func (ix *Index) ResidentBytes() int {
	total := 0
	for _, e := range ix.terms {
		if l := e.list.Load(); l != nil {
			total += l.MemoryBytes()
		}
	}
	return total
}

// VocabDerived returns the structure build derives from this index's
// vocabulary, building it on the first call — the rules package's spelling
// BK-tree and stem map. An index's vocabulary never changes, so one build
// serves the index's lifetime; a live update's new epoch builds its own, and
// the old one is collected with its index.
func (ix *Index) VocabDerived(build func() any) any {
	ix.vocabOnce.Do(func() { ix.vocab = build() })
	return ix.vocab
}

type coKey struct {
	a, b   string
	typeID int
}

// Build constructs the index from a parsed document with a single
// document-order walk (the "multiple traversal" of the paper collapses to
// one pass because every statistic here is prefix-incremental).
func Build(doc *xmltree.Document) *Index {
	ix := &Index{
		Types:     doc.Types,
		Root:      dewey.Root(),
		NodeCount: doc.NodeCount,
		terms:     make(map[string]*kwEntry),
		coCache:   make(map[coKey]int),
		stat:      &opStat{},
	}
	ix.nt = make([]uint32, doc.Types.Len())
	type buildState struct {
		*kwEntry
		postings []Posting
		lastID   dewey.ID // previous posting, for new-subtree-root detection
	}
	states := make(map[string]*buildState)
	doc.Walk(func(n *xmltree.Node) bool {
		ix.nt[n.Type.ID]++
		terms := n.Terms()
		if len(terms) == 0 {
			return true
		}
		// tf: every occurrence counts once per ancestor-or-self type.
		ancestors := make([]*xmltree.Type, 0, n.Type.Depth+1)
		for t := n.Type; t != nil; t = t.Parent {
			ancestors = append(ancestors, t)
		}
		seen := make(map[string]bool, len(terms))
		for _, term := range terms {
			st := states[term]
			if st == nil {
				st = &buildState{kwEntry: &kwEntry{stats: make(map[int]typeStat)}}
				states[term] = st
			}
			for _, t := range ancestors {
				row := st.stats[t.ID]
				row.tf++
				st.stats[t.ID] = row
			}
			if seen[term] {
				continue
			}
			seen[term] = true
			// df: ancestor roots not shared with the previous posting
			// of this term are newly-containing subtrees.
			shared := 0
			if st.lastID != nil {
				shared = dewey.LCALen(st.lastID, n.ID)
			}
			for depth := shared; depth <= n.Type.Depth; depth++ {
				t := ancestors[len(ancestors)-1-depth] // ancestors is self..root
				row := st.stats[t.ID]
				row.df++
				st.stats[t.ID] = row
			}
			st.lastID = n.ID
			st.postings = append(st.postings, Posting{ID: n.ID, Type: n.Type})
		}
		return true
	})
	for term, st := range states {
		st.kwEntry.list.Store(NewList(term, st.postings))
		st.kwEntry.listLen = uint32(len(st.postings))
		ix.terms[term] = st.kwEntry
	}
	ix.gt = make([]uint32, doc.Types.Len())
	for _, e := range ix.terms {
		for tid := range e.stats {
			ix.gt[tid]++
		}
	}
	for _, p := range doc.Partitions() {
		ix.partRoot = append(ix.partRoot, p.ID)
	}
	return ix
}

// HasTerm reports whether the keyword occurs anywhere in the document.
func (ix *Index) HasTerm(term string) bool {
	_, ok := ix.terms[term]
	return ok
}

// List returns the inverted list of term, or an empty list when the term
// does not occur. Lists load lazily on disk-backed indexes; concurrent
// callers of the same term share one load, callers of different terms load
// independently (no global lock is held across kvstore I/O).
func (ix *Index) List(term string) (*List, error) { return ix.ListCtx(nil, term) }

// ListCtx is List with cancellation: a canceled context stops before the
// lazy kvstore load (the expensive part) and, for loads already queued
// behind another caller's singleflight, before returning the shared
// result. Resident lists return regardless — there is nothing to save.
func (ix *Index) ListCtx(ctx context.Context, term string) (*List, error) {
	l, _, err := ix.ListCtxInfo(ctx, term)
	return l, err
}

// ListCtxInfo is ListCtx plus a residency report: loaded is true when
// this call paged the list in from the backing store (a cache miss in
// observability terms) and false when the list was already in memory.
// Per-query traces use the report to attribute load cost to the query
// that paid it.
func (ix *Index) ListCtxInfo(ctx context.Context, term string) (l *List, loaded bool, err error) {
	e, ok := ix.terms[term]
	if !ok {
		return &List{Term: term}, false, nil
	}
	if l := e.list.Load(); l != nil {
		ix.stat.resident.Add(1)
		return l, false, nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	if l := e.list.Load(); l != nil {
		// Another caller's singleflight finished the load while we
		// queued; it is resident from this call's perspective.
		ix.stat.resident.Add(1)
		return l, false, nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	if ix.loader == nil {
		return nil, false, fmt.Errorf("index: list for %q missing and no loader", term)
	}
	l, err = ix.loader(term)
	if err != nil {
		return nil, false, fmt.Errorf("index: load list %q: %w", term, err)
	}
	e.list.Store(l)
	ix.stat.loaded.Add(1)
	ix.stat.postingsLoaded.Add(uint64(l.Len()))
	return l, true, nil
}

// ListLen returns the posting count of term without forcing a lazy list
// load (the frequent table carries the length).
func (ix *Index) ListLen(term string) int {
	e, ok := ix.terms[term]
	if !ok {
		return 0
	}
	if l := e.list.Load(); l != nil {
		return l.Len()
	}
	return int(e.listLen)
}

// Vocabulary returns every indexed term in lexicographic order.
func (ix *Index) Vocabulary() []string {
	out := make([]string, 0, len(ix.terms))
	for t := range ix.terms {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// DF returns the XML document frequency f_k^T (Definition 3.2).
func (ix *Index) DF(term string, t *xmltree.Type) int {
	if e, ok := ix.terms[term]; ok {
		return int(e.stats[t.ID].df)
	}
	return 0
}

// TF returns tf(k,T): the number of occurrences of term within subtrees
// rooted at T-typed nodes.
func (ix *Index) TF(term string, t *xmltree.Type) int {
	if e, ok := ix.terms[term]; ok {
		return int(e.stats[t.ID].tf)
	}
	return 0
}

// NT returns N_T, the number of T-typed nodes. Types minted by a later
// epoch (the registry is shared across epochs) read as zero here.
func (ix *Index) NT(t *xmltree.Type) int {
	if t.ID >= len(ix.nt) {
		return 0
	}
	return int(ix.nt[t.ID])
}

// GT returns G_T, the number of distinct keywords within T-typed subtrees.
func (ix *Index) GT(t *xmltree.Type) int {
	if t.ID >= len(ix.gt) {
		return 0
	}
	return int(ix.gt[t.ID])
}

// PartitionRoots returns the Dewey labels of the document partitions
// (Definition 6.1) in document order.
func (ix *Index) PartitionRoots() []dewey.ID { return ix.partRoot }

// CoDF returns the co-occurrence frequency f_{a,b}^T: the number of T-typed
// nodes whose subtree contains both keywords. The paper materializes an
// O(K^2 * T) table at parse time; this implementation computes entries on
// demand from the two inverted lists (a sorted merge over subtree roots)
// and memoizes them, which is the same table realized lazily.
func (ix *Index) CoDF(a, b string, t *xmltree.Type) (int, error) {
	if a > b {
		a, b = b, a
	}
	key := coKey{a: a, b: b, typeID: t.ID}
	ix.mu.Lock()
	if v, ok := ix.coCache[key]; ok {
		ix.mu.Unlock()
		return v, nil
	}
	ix.mu.Unlock()
	la, err := ix.List(a)
	if err != nil {
		return 0, err
	}
	lb, err := ix.List(b)
	if err != nil {
		return 0, err
	}
	v := coOccurringRoots(la, lb, t)
	ix.mu.Lock()
	ix.coCache[key] = v
	ix.mu.Unlock()
	return v, nil
}

// coOccurringRoots counts distinct T-typed subtree roots containing
// postings from both lists. Both lists are in document order, so the
// T-typed ancestor roots of each list are non-decreasing and the count is a
// single sorted merge with on-the-fly dedup.
func coOccurringRoots(la, lb *List, t *xmltree.Type) int {
	rootsA := typedRoots(la, t)
	rootsB := typedRoots(lb, t)
	i, j, count := 0, 0, 0
	for i < len(rootsA) && j < len(rootsB) {
		switch dewey.Compare(rootsA[i], rootsB[j]) {
		case -1:
			i++
		case 1:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

// typedRoots maps each posting to its T-typed ancestor root (when its path
// passes through type t) and dedups consecutive repeats. It scans through
// a cursor, so the list is decoded one pooled block at a time instead of
// being materialized.
func typedRoots(l *List, t *xmltree.Type) []dewey.ID {
	var roots []dewey.ID
	depth := t.Depth
	c := l.NewCursor()
	defer c.Close()
	for ; c.Valid(); c.Next() {
		p := c.Posting()
		if p.Type.Depth < depth {
			continue
		}
		at, err := p.Type.AncestorAt(depth)
		if err != nil || at != t {
			continue
		}
		root := p.ID[:depth+1] // aliases cursor scratch until the Clone below
		if len(roots) > 0 && dewey.Equal(roots[len(roots)-1], root) {
			continue
		}
		roots = append(roots, root.Clone())
	}
	return roots
}

// CompleteByPrefix returns up to k indexed terms starting with prefix,
// most frequent first — the datasource behind search-as-you-type
// completion. The vocabulary is consulted in sorted order, so the prefix
// range is two binary searches plus a scan of the matching block.
func (ix *Index) CompleteByPrefix(prefix string, k int) []string {
	if prefix == "" || k < 1 {
		return nil
	}
	vocab := ix.Vocabulary()
	lo := sort.SearchStrings(vocab, prefix)
	type tf struct {
		term string
		n    int
	}
	var hits []tf
	for i := lo; i < len(vocab) && strings.HasPrefix(vocab[i], prefix); i++ {
		hits = append(hits, tf{term: vocab[i], n: ix.ListLen(vocab[i])})
	}
	sort.SliceStable(hits, func(a, b int) bool {
		if hits[a].n != hits[b].n {
			return hits[a].n > hits[b].n
		}
		return hits[a].term < hits[b].term
	})
	if len(hits) == 0 {
		return nil
	}
	if len(hits) > k {
		hits = hits[:k]
	}
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.term
	}
	return out
}
