package index

import (
	"context"
	"fmt"
	"io"
	"slices"
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

	terms    map[string]*kwEntry
	loader   func(term string) (*List, error) // nil for fully-resident indexes
	nt       []uint32                         // N_T per type ID
	gt       []uint32                         // G_T per type ID
	partRoot []dewey.ID                       // document partition roots in order

	// sortOnce/sorted hold the vocabulary in lexicographic order, sorted on
	// first use (see Vocabulary); vocabOnce/vocab hold the one
	// vocabulary-derived structure a higher layer attaches (see
	// VocabDerived). Owned here, both are freed with the epoch that built
	// them.
	sortOnce  sync.Once
	sorted    []string
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
// vocabulary, building it on the first call — the rules package's stem
// map. An index's vocabulary never changes, so one build serves the
// index's lifetime; a live update's new epoch builds its own, and the old
// one is collected with its index.
func (ix *Index) VocabDerived(build func() any) any {
	ix.vocabOnce.Do(func() { ix.vocab = build() })
	return ix.vocab
}

// Build constructs the index from a parsed document with a single
// document-order walk (the "multiple traversal" of the paper collapses to
// one pass because every statistic here is prefix-incremental). It feeds
// counts the partitions and then the root, as BuildStream does.
func Build(doc *xmltree.Document) *Index {
	c := newCounts(0)
	for _, p := range doc.Partitions() {
		c.partition(p)
	}
	c.node(doc.Root)
	return c.index(doc.Types)
}

// BuildStream constructs the index straight from XML, without holding the
// document tree: xmltree.ParsePartitions hands over one partition at a
// time and each is dropped once counted, so memory stays the index plus
// one partition — the paper's DBLP corpus is 420 MB of XML whose tree
// would dwarf its inverted lists. The reader and the counts are Build's,
// fed in Build's order, so the index is Build(xmltree.Parse(r, opts))'s;
// engines built from it have no Document, so snippets and narrowing are
// unavailable.
func BuildStream(r io.Reader, opts *xmltree.Options) (*Index, error) {
	c := newCounts(0)
	doc, err := xmltree.ParsePartitions(r, opts, c.partition)
	if err != nil {
		return nil, err
	}
	c.node(doc.Root)
	return c.index(doc.Types), nil
}

// counts tallies the statistics of Section VII over the nodes fed to it in
// document order: the one statistics walk, behind Build, BuildStream and
// the Mutator's live updates. A term's df at type T counts the distinct
// T-typed roots at depth floor or deeper whose subtree holds the term.
// Consecutive postings of a term share containing roots exactly up to
// their Dewey common-prefix length, so a posting's new roots are the ones
// below that length.
type counts struct {
	floor int // depth of the shallowest roots df counts
	terms map[string]*termCounts
	order []*termCounts // terms by first occurrence
	nt    []uint32      // N_T per type ID
	nodes int
	parts []dewey.ID // the roots fed through partition, in order
	held  []string   // the counted node's terms, reused across nodes
}

// termCounts is one term's share of a counts.
type termCounts struct {
	term     string
	postings []Posting        // document order, one per node
	stats    map[int]typeStat // tf and df per type ID
	last     dewey.ID         // the node of the last posting
}

func newCounts(floor int) *counts {
	return &counts{floor: floor, terms: make(map[string]*termCounts)}
}

// partition counts a partition (a child of the root) and records its root.
func (c *counts) partition(p *xmltree.Node) {
	c.subtree(p)
	c.parts = append(c.parts, p.ID)
}

// subtree counts the nodes of the subtree rooted at n in document order.
func (c *counts) subtree(n *xmltree.Node) {
	c.node(n)
	for _, ch := range n.Children {
		c.subtree(ch)
	}
}

// node counts one node: N_T, tf at every ancestor-or-self type per
// occurrence of a term, and, the first time the node holds a term, its
// posting and df at the containing roots no earlier posting shares. The
// root is fed after its partitions, yet its posting leads every list, and
// it shares depth 0 with every earlier posting, so its df needs nothing
// more.
func (c *counts) node(n *xmltree.Node) {
	for n.Type.ID >= len(c.nt) {
		c.nt = append(c.nt, 0)
	}
	c.nt[n.Type.ID]++
	c.nodes++
	c.held = n.AppendTerms(c.held[:0])
	for _, term := range c.held {
		tc := c.terms[term]
		if tc == nil {
			tc = &termCounts{term: term, stats: make(map[int]typeStat)}
			c.terms[term] = tc
			c.order = append(c.order, tc)
		}
		for t := n.Type; t != nil; t = t.Parent {
			row := tc.stats[t.ID]
			row.tf++
			tc.stats[t.ID] = row
		}
		if dewey.Equal(tc.last, n.ID) {
			continue // a term held twice by one node has one posting
		}
		shared := c.floor
		if tc.last != nil {
			shared = dewey.LCALen(tc.last, n.ID)
		}
		for t := n.Type; t != nil && t.Depth >= shared; t = t.Parent {
			row := tc.stats[t.ID]
			row.df++
			tc.stats[t.ID] = row
		}
		tc.last = n.ID
		p := Posting{ID: n.ID, Type: n.Type}
		if len(n.ID) == 1 {
			tc.postings = slices.Insert(tc.postings, 0, p)
		} else {
			tc.postings = append(tc.postings, p)
		}
	}
}

// index makes the resident index of a document every node of which c has
// counted, its partitions through partition.
func (c *counts) index(types *xmltree.Registry) *Index {
	ix := &Index{
		Types:     types,
		Root:      dewey.Root(),
		NodeCount: c.nodes,
		terms:     make(map[string]*kwEntry, len(c.order)),
		nt:        make([]uint32, types.Len()),
		gt:        make([]uint32, types.Len()),
		partRoot:  c.parts,
		stat:      &opStat{},
	}
	copy(ix.nt, c.nt)
	for _, tc := range c.order {
		e := &kwEntry{listLen: uint32(len(tc.postings)), stats: tc.stats}
		e.list.Store(NewList(tc.term, tc.postings))
		ix.terms[tc.term] = e
		for id := range tc.stats {
			ix.gt[id]++
		}
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

// Vocabulary returns every indexed term in lexicographic order. The slice
// is sorted once per index, on the first call, and every caller shares it:
// callers must not modify it.
func (ix *Index) Vocabulary() []string {
	ix.sortOnce.Do(func() {
		ix.sorted = make([]string, 0, len(ix.terms))
		for t := range ix.terms {
			ix.sorted = append(ix.sorted, t)
		}
		sort.Strings(ix.sorted)
	})
	return ix.sorted
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
// O(K^2 * T) table at parse time; the served path counts the entries it
// needs during the partition walk instead (refine.CoCounts), and this
// two-list merge over subtree roots is the reference those counts are
// tested against. It keeps no memo. A merged index (see Merge) holds no
// lists, so CoDF on it fails.
func (ix *Index) CoDF(a, b string, t *xmltree.Type) (int, error) {
	la, err := ix.List(a)
	if err != nil {
		return 0, err
	}
	lb, err := ix.List(b)
	if err != nil {
		return 0, err
	}
	return coOccurringRoots(la, lb, t), nil
}

// coOccurringRoots counts distinct T-typed subtree roots containing
// postings from both lists. Both lists are in document order, so the
// T-typed ancestor roots of each list are non-decreasing and the count is a
// single sorted merge of two cursors, each yielding its list's distinct
// roots.
func coOccurringRoots(la, lb *List, t *xmltree.Type) int {
	a := rootCursor{c: la.NewCursor(), t: t}
	defer a.c.Close()
	b := rootCursor{c: lb.NewCursor(), t: t}
	defer b.c.Close()
	okA, okB := a.next(), b.next()
	count := 0
	for okA && okB {
		switch dewey.Compare(a.root, b.root) {
		case -1:
			okA = a.next()
		case 1:
			okB = b.next()
		default:
			count++
			okA, okB = a.next(), b.next()
		}
	}
	return count
}

// rootCursor walks a list in document order and yields the distinct
// T-typed roots above its postings (those whose path passes through type
// t). The list is decoded one pooled block at a time, and each root is
// copied into root, a buffer the cursor reuses: root holds the current
// root until the next call to next.
type rootCursor struct {
	c    *Cursor
	t    *xmltree.Type
	root dewey.ID
}

// next moves to the following distinct root and reports whether there is
// one.
func (r *rootCursor) next() bool {
	depth := r.t.Depth
	for ; r.c.Valid(); r.c.Next() {
		p := r.c.Posting()
		if p.Type.Depth < depth {
			continue
		}
		if at, err := p.Type.AncestorAt(depth); err != nil || at != r.t {
			continue
		}
		root := p.ID[:depth+1] // aliases the cursor's block until copied
		if len(r.root) > 0 && dewey.Equal(r.root, root) {
			continue
		}
		r.root = append(r.root[:0], root...)
		r.c.Next()
		return true
	}
	return false
}

// CompleteByPrefix returns up to k indexed terms starting with prefix,
// most frequent first — the datasource behind search-as-you-type
// completion. The prefix range is a binary search of the sorted
// vocabulary plus a scan of the matching block.
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
