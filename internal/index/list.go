// Package index builds and serves the access structures of Section VII of
// the paper: keyword inverted lists (document-ordered <DeweyID, prefixPath>
// postings), the frequent table (XML document frequency f_k^T and term
// frequency tf(k,T) per keyword and node type, plus N_T and G_T), and the
// co-occurrence frequency table f_{ki,kj}^T. Indexes build in memory from a
// parsed document and persist into the embedded kvstore (the repository's
// Berkeley DB substitute), from which posting lists load lazily per keyword
// so query processing touches only the lists it scans.
package index

import (
	"sort"
	"sync/atomic"

	"xrefine/internal/dewey"
	"xrefine/internal/xmltree"
)

// Posting is one inverted-list entry: a node containing the keyword in its
// tag or value, with its interned node type (the paper's prefixPath).
type Posting struct {
	ID   dewey.ID
	Type *xmltree.Type
}

// List is a keyword's inverted list in document order, stored
// block-compressed (see block.go): the resident form is the encoded byte
// stream plus a skip table, and postings materialize lazily one block at a
// time. Lists are immutable after construction and safe for concurrent
// use.
//
// A List value is a *window* over a shared immutable core: Sub and View
// return new windows without copying or re-encoding anything. View gives
// the window a private decoded-block cache, so concurrent computations
// that fan out over the same term (the PR-1 worker pool, the PR-5 shard
// gather) never thrash each other's block locality; Sub shares its
// parent's cache, because sub-windows (per-partition slices of one
// query's lists) are visited in document order and want the warm blocks
// their siblings just paid to decode. Random access (At, SeekGE) reads
// through that cache; scan loops should prefer NewCursor, which reuses a
// pooled decode buffer and produces no garbage.
type List struct {
	Term string

	core   *listCore // nil for the empty list of an unindexed term
	lo, hi int       // window as global posting indexes [lo, hi)

	cache *blockCache
}

// blockCache holds decoded blocks by block-index parity: block b lives
// only in slot b&1, so two adjacent blocks never evict each other. That
// matters for straddling access patterns — the eager SLCA scan holds a
// frontier postings[c-1] <= x < postings[c] whose two sides can sit in
// neighboring blocks, and a single-slot cache would re-decode both on
// every step. A published decodedBlock is immutable, so postings returned
// by At stay valid after the slot moves on — the GC owns their lifetime.
type blockCache struct {
	slots [2]atomic.Pointer[decodedBlock]
}

// NewList builds a list from postings that must already be in document
// order; it panics if they are not, because every algorithm downstream
// silently corrupts otherwise. The postings are encoded into block form;
// the input slice is not retained.
func NewList(term string, postings []Posting) *List {
	return buildList(term, postings, true)
}

// NewListUnchecked builds a list without the document-order validation of
// NewList. It exists for callers that already hold validated,
// document-ordered postings (mutator re-encodes, merge output) — the
// encoder's prefix-delta math assumes order, so truly unordered input is
// still corrupt, just undiagnosed.
func NewListUnchecked(term string, postings []Posting) *List {
	return buildList(term, postings, false)
}

func buildList(term string, postings []Posting, check bool) *List {
	w := newBlockWriter(term, check)
	for _, p := range postings {
		if err := w.Append(p.ID, p.Type); err != nil {
			panic(err.Error())
		}
	}
	return newListFromCore(term, w.Finish())
}

// newListFromCore wraps a completed core in a full-window List.
func newListFromCore(term string, core *listCore) *List {
	if core == nil || core.n == 0 {
		return &List{Term: term}
	}
	return &List{Term: term, core: core, lo: 0, hi: core.n, cache: &blockCache{}}
}

// Sub returns the sublist covering postings [start, end) as a window
// sharing l's encoded core AND l's block cache: consecutive sub-windows
// of one computation walk the document in order, so the block a sibling
// just decoded is very often the block the next sublist needs. Order
// needs no re-validation: a contiguous window of a document-ordered list
// is document-ordered.
func (l *List) Sub(start, end int) *List {
	w := new(List)
	l.SubInto(w, start, end)
	return w
}

// SubInto sets *w to the window Sub(start, end) would return, without
// allocating: a caller cutting many short-lived windows keeps them in its
// own reused List values.
func (l *List) SubInto(w *List, start, end int) {
	if l == nil || l.core == nil {
		*w = List{Term: l.term()}
		return
	}
	*w = List{Term: l.Term, core: l.core, lo: l.lo + start, hi: l.lo + end, cache: l.cache}
}

// View returns a same-window copy of l with a private block cache. Wrap
// shared lists in View before handing them to an independent computation
// (a query, a worker) so its block locality is not disturbed by — and does
// not disturb — anyone else's.
func (l *List) View() *List {
	if l == nil || l.core == nil {
		return &List{Term: l.term()}
	}
	return &List{Term: l.Term, core: l.core, lo: l.lo, hi: l.hi, cache: &blockCache{}}
}

func (l *List) term() string {
	if l == nil {
		return ""
	}
	return l.Term
}

// winLo and winHi expose the global window bounds to the cursor.
func (l *List) winLo() int { return l.lo }
func (l *List) winHi() int { return l.hi }

// Len returns the number of postings.
func (l *List) Len() int {
	if l == nil {
		return 0
	}
	return l.hi - l.lo
}

// block returns decoded block b through the window's parity cache.
func (l *List) block(b int) *decodedBlock {
	start := int(l.core.skip[b].start)
	slot := &l.cache.slots[b&1]
	if db := slot.Load(); db != nil && db.start == start {
		return db
	}
	db := l.core.decodeBlock(b)
	slot.Store(db)
	return db
}

// At returns the i-th posting in document order. The posting's ID is
// immutable and remains valid indefinitely (it aliases a cached decoded
// block that the GC keeps alive as long as the ID is referenced).
func (l *List) At(i int) Posting {
	g := l.lo + i
	for s := range l.cache.slots {
		if db := l.cache.slots[s].Load(); db != nil && g >= db.start && g < db.end {
			return db.posts[g-db.start]
		}
	}
	db := l.block(l.core.findBlock(g))
	return db.posts[g-db.start]
}

// SeekGE returns the index of the first posting with ID >= d, or Len().
// It binary searches the skip table and decodes at most one block.
func (l *List) SeekGE(d dewey.ID) int {
	if l == nil || l.core == nil || l.lo >= l.hi {
		return 0
	}
	core := l.core
	// First block whose first posting is >= d; the answer lives in the
	// block before it (or is that block's first posting).
	g := 0
	if j := sort.Search(len(core.skip), func(b int) bool { return dewey.Compare(core.skip[b].first, d) >= 0 }); j > 0 {
		db := l.block(j - 1)
		k := sort.Search(len(db.posts), func(i int) bool { return dewey.Compare(db.posts[i].ID, d) >= 0 })
		g = db.start + k
	}
	if g < l.lo {
		return 0
	}
	if g > l.hi {
		return l.Len()
	}
	return g - l.lo
}

// Range returns the half-open index interval [start, end) of postings whose
// IDs fall in the Dewey interval [lo, hi).
func (l *List) Range(lo, hi dewey.ID) (int, int) {
	return l.SeekGE(lo), l.SeekGE(hi)
}

// InSubtree returns the index interval of postings inside the subtree
// rooted at root (self included).
func (l *List) InSubtree(root dewey.ID) (int, int) {
	return l.Range(root, root.Next())
}

// HasInSubtree reports whether any posting lies in root's subtree.
func (l *List) HasInSubtree(root dewey.ID) bool {
	s, e := l.InSubtree(root)
	return s < e
}

// Slice materializes the postings in [start, end) into a fresh slice with
// owned IDs. It decodes every covered block, so it belongs on mutation and
// test paths, not query hot paths — scans should use NewCursor.
func (l *List) Slice(start, end int) []Posting {
	if l == nil || l.core == nil || start >= end {
		return nil
	}
	out := make([]Posting, 0, end-start)
	c := l.NewCursor()
	defer c.Close()
	c.Seek(start)
	for c.Pos() < end {
		p := c.Posting()
		out = append(out, Posting{ID: p.ID.Clone(), Type: p.Type})
		c.Next()
	}
	return out
}

// Postings materializes the whole list under the same contract as Slice.
func (l *List) Postings() []Posting { return l.Slice(0, l.Len()) }

// MemoryBytes reports the resident cost of the list's encoded core:
// compressed payload, skip table, and type table. Windows share one core;
// the figure is for the whole core, not the window.
func (l *List) MemoryBytes() int {
	if l == nil {
		return 0
	}
	return l.core.memoryBytes()
}

// BlockCount returns the number of encoded blocks in the core.
func (l *List) BlockCount() int {
	if l == nil || l.core == nil {
		return 0
	}
	return len(l.core.skip)
}

// EncodedBytes returns the size of the core's encoded payload alone.
func (l *List) EncodedBytes() int {
	if l == nil || l.core == nil {
		return 0
	}
	return len(l.core.enc)
}
