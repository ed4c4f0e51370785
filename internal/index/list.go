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
// stream plus a skip table, and postings materialize one block at a time
// into pooled cursor scratch. Lists are immutable after construction and
// safe for concurrent use: a List value is a window over a shared
// immutable core and carries no decode state, so any number of
// goroutines read one list at once. Scans read through NewCursor, which
// decodes each block once into a pooled buffer and produces no garbage.
type List struct {
	Term string

	core   *listCore // nil for the empty list of an unindexed term
	lo, hi int       // window as global posting indexes [lo, hi)
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
	return &List{Term: term, core: core, lo: 0, hi: core.n}
}

// View returns a same-window copy of l. A List holds no decode state, so
// the copy reads exactly as l does.
func (l *List) View() *List {
	if l == nil || l.core == nil {
		return &List{Term: l.term()}
	}
	w := *l
	return &w
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

// SeekGE returns the index of the first posting with ID >= d, or Len().
// It binary searches the skip table and decodes at most one block, into
// pooled cursor scratch, so it allocates nothing.
func (l *List) SeekGE(d dewey.ID) int {
	if l == nil || l.core == nil {
		return 0
	}
	c := l.cursor()
	defer c.Close()
	return c.SeekGE(d)
}

// Range returns the half-open index interval [start, end) of postings whose
// IDs fall in the Dewey interval [lo, hi), empty when hi <= lo. One
// cursor seeks to lo, then forward to hi, often inside the block it just
// decoded.
func (l *List) Range(lo, hi dewey.ID) (int, int) {
	if l == nil || l.core == nil {
		return 0, 0
	}
	c := l.cursor()
	defer c.Close()
	return c.SeekGE(lo), c.SeekGE(hi)
}

// InSubtree returns the index interval of postings inside the subtree
// rooted at root (self included).
func (l *List) InSubtree(root dewey.ID) (int, int) {
	var buf [16]uint32
	next := append(buf[:0], root...) // root.Next() without the clone
	next[len(next)-1]++
	return l.Range(root, next)
}

// HasInSubtree reports whether any posting lies in root's subtree.
func (l *List) HasInSubtree(root dewey.ID) bool {
	s, e := l.InSubtree(root)
	return s < e
}

// Slice materializes the postings in [start, end) into a fresh slice
// whose IDs are owned by it: they are cut from one arena nothing else
// references. It decodes every covered block, so it belongs on mutation
// and test paths, not query hot paths — scans should use NewCursor.
func (l *List) Slice(start, end int) []Posting {
	if l == nil || l.core == nil || start >= end {
		return nil
	}
	w := List{Term: l.Term, core: l.core, lo: l.lo + start, hi: l.lo + end}
	c := w.NewCursor()
	defer c.Close()
	out, _ := c.AppendUntil(make([]Posting, 0, end-start), nil, nil)
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
