package index

import (
	"fmt"
	"sort"

	"xrefine/internal/dewey"
	"xrefine/internal/storage"
	"xrefine/internal/xmltree"
)

// Mutator derives a new index epoch from an existing one by applying
// subtree insertions and deletions, keeping every statistic exactly what a
// from-scratch Build over the mutated document would produce (the
// rebuild-equivalence guarantee — the updated rows of
// wire.TestConformance assert it).
//
// The derivation is copy-on-write at keyword granularity: the new index
// shares the kwEntry of every untouched term with its source, and the
// first mutation of a term clones its entry. The source index keeps
// serving concurrent readers untouched throughout. Cloning a term first
// forces its posting list resident through the *shared* entry — after the
// batch commits, the cells that term's lazy loader would have read are
// rewritten, so the previous epoch must never page it in again.
//
// Statistic maintenance is Build's: the subtree is tallied by the same
// counts walk, with df's floor at the subtree root's depth, and its rows
// are added or subtracted:
//
//   - N_T: ±1 per node of the subtree.
//   - tf(k,T): ±1 per occurrence, for every ancestor-or-self type.
//   - f_k^T (df) inside the subtree: distinct containing roots at depths
//     >= the subtree root.
//   - f_k^T at strict-ancestor depths: ±1 only when the subtree adds the
//     first (or removes the last) occurrence under that ancestor, probed
//     against the unmodified list.
//   - G_T: row-existence count, adjusted when a (k,T) row appears or its
//     tf drains to zero.
type Mutator struct {
	ix      *Index
	cloned  map[string]bool
	changed map[string]bool
	removed map[string]bool
}

// NewMutator starts a derivation from src. src is not modified (beyond
// lazily materializing posting lists it shares with the derived index).
func NewMutator(src *Index) *Mutator {
	ix := &Index{
		Types:     src.Types,
		Root:      src.Root,
		NodeCount: src.NodeCount,
		terms:     make(map[string]*kwEntry, len(src.terms)),
		loader:    src.loader,
		nt:        append([]uint32(nil), src.nt...),
		gt:        append([]uint32(nil), src.gt...),
		partRoot:  append([]dewey.ID(nil), src.partRoot...),
		stat:      src.stat,
	}
	for t, e := range src.terms {
		ix.terms[t] = e
	}
	return &Mutator{
		ix:      ix,
		cloned:  make(map[string]bool),
		changed: make(map[string]bool),
		removed: make(map[string]bool),
	}
}

// Index returns the derived index. It is safe to publish, and to read,
// once the caller is done mutating: its sorted vocabulary and the
// structure VocabDerived attaches are built on first use and never
// rebuilt.
func (m *Mutator) Index() *Index { return m.ix }

// Changed returns the terms whose rows/lists differ from the source, in
// lexicographic order. Removed terms are not included.
func (m *Mutator) Changed() []string { return sortedTermSet(m.changed) }

// Removed returns the terms deleted entirely, in lexicographic order.
func (m *Mutator) Removed() []string { return sortedTermSet(m.removed) }

func sortedTermSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// touch returns the mutator-private clone of term's entry, creating the
// term when it is new to the index.
func (m *Mutator) touch(term string) (*kwEntry, error) {
	e, ok := m.ix.terms[term]
	if ok && m.cloned[term] {
		return e, nil
	}
	m.cloned[term] = true
	m.changed[term] = true
	delete(m.removed, term)
	if !ok {
		ne := &kwEntry{stats: make(map[int]typeStat)}
		ne.list.Store(NewListUnchecked(term, nil))
		m.ix.terms[term] = ne
		return ne, nil
	}
	// Load through the still-shared entry so the previous epoch keeps a
	// resident copy of its list (epoch isolation, see type comment).
	l, err := m.ix.ListCtx(nil, term)
	if err != nil {
		return nil, err
	}
	ne := &kwEntry{listLen: e.listLen, stats: make(map[int]typeStat, len(e.stats))}
	for id, row := range e.stats {
		ne.stats[id] = row
	}
	ne.list.Store(l)
	m.ix.terms[term] = ne
	return ne, nil
}

// growType extends the per-type stat arrays to cover type ID id.
func (m *Mutator) growType(id int) {
	for id >= len(m.ix.nt) {
		m.ix.nt = append(m.ix.nt, 0)
	}
	for id >= len(m.ix.gt) {
		m.ix.gt = append(m.ix.gt, 0)
	}
}

// subChain returns sub's ancestor-or-self types indexed by depth
// (subChain[d] is the depth-d ancestor type).
func subChain(sub *xmltree.Node) []*xmltree.Type {
	chain := make([]*xmltree.Type, sub.Type.Depth+1)
	for t := sub.Type; t != nil; t = t.Parent {
		chain[t.Depth] = t
	}
	return chain
}

// InsertSubtree folds a freshly grafted subtree into the derived index.
// sub must already be attached to the (new epoch's) document — its Dewey
// labels and interned types are read as-is.
func (m *Mutator) InsertSubtree(sub *xmltree.Node) error {
	ix := m.ix
	c := newCounts(sub.Type.Depth)
	c.subtree(sub)
	m.growType(len(c.nt) - 1)
	for id, n := range c.nt {
		ix.nt[id] += n
	}
	chain := subChain(sub)
	rootDepth := sub.Type.Depth
	for _, tc := range c.order {
		term := tc.term
		e, err := m.touch(term)
		if err != nil {
			return err
		}
		old := e.list.Load()
		// The subtree's rows hold every type on its postings' chains,
		// the strict ancestors' rows below included.
		for id, d := range tc.stats {
			row, had := e.stats[id]
			if !had {
				m.growType(id)
				ix.gt[id]++
			}
			row.tf += d.tf
			row.df += d.df
			e.stats[id] = row
		}
		// Strict ancestors of the subtree root: a new containing root
		// only when the term did not occur under it before.
		for d := 0; d < rootDepth; d++ {
			if !old.HasInSubtree(sub.ID[:d+1]) {
				row := e.stats[chain[d].ID]
				row.df++
				e.stats[chain[d].ID] = row
			}
		}
		at := old.SeekGE(sub.ID)
		merged := make([]Posting, 0, old.Len()+len(tc.postings))
		merged = append(merged, old.Slice(0, at)...)
		merged = append(merged, tc.postings...)
		merged = append(merged, old.Slice(at, old.Len())...)
		// Checked constructor: document order is the invariant every
		// downstream algorithm relies on; fail the batch, not the query.
		e.list.Store(NewList(term, merged))
		e.listLen = uint32(len(merged))
	}
	if len(sub.ID) == 2 {
		ix.partRoot = append(ix.partRoot, sub.ID)
	}
	ix.NodeCount += c.nodes
	return nil
}

// DeleteSubtree removes a subtree's contribution from the derived index.
// Call it while sub is still attached (or just detached with its labels
// intact) — the walk needs the subtree's structure and terms.
func (m *Mutator) DeleteSubtree(sub *xmltree.Node) error {
	ix := m.ix
	c := newCounts(sub.Type.Depth)
	c.subtree(sub)
	m.growType(len(c.nt) - 1)
	for id, n := range c.nt {
		if ix.nt[id] < n {
			return fmt.Errorf("index: delete of %s: N_T underflow for type %d", sub.ID, id)
		}
		ix.nt[id] -= n
	}
	chain := subChain(sub)
	rootDepth := sub.Type.Depth
	for _, tc := range c.order {
		term := tc.term
		e, err := m.touch(term)
		if err != nil {
			return err
		}
		old := e.list.Load()
		lo, hi := old.InSubtree(sub.ID)
		if hi-lo != len(tc.postings) {
			return fmt.Errorf("index: delete of %s: list for %q holds %d postings in subtree, document has %d",
				sub.ID, term, hi-lo, len(tc.postings))
		}
		// The strict ancestors' df goes first, so a row whose tf drains
		// below already reads its final df.
		for d := 0; d < rootDepth; d++ {
			alo, ahi := old.InSubtree(sub.ID[:d+1])
			if (ahi-alo)-(hi-lo) == 0 {
				row := e.stats[chain[d].ID]
				if row.df == 0 {
					return fmt.Errorf("index: delete of %s: ancestor df underflow for %q type %d", sub.ID, term, chain[d].ID)
				}
				row.df--
				e.stats[chain[d].ID] = row
			}
		}
		for id, d := range tc.stats {
			row, had := e.stats[id]
			if !had || row.df < d.df {
				return fmt.Errorf("index: delete of %s: df underflow for %q type %d", sub.ID, term, id)
			}
			if row.tf < d.tf {
				return fmt.Errorf("index: delete of %s: tf underflow for %q type %d", sub.ID, term, id)
			}
			row.tf -= d.tf
			row.df -= d.df
			if row.tf == 0 {
				if row.df != 0 {
					return fmt.Errorf("index: delete of %s: row (%q, type %d) drained tf with df=%d", sub.ID, term, id, row.df)
				}
				delete(e.stats, id)
				if ix.gt[id] == 0 {
					return fmt.Errorf("index: delete of %s: G_T underflow for type %d", sub.ID, id)
				}
				ix.gt[id]--
				continue
			}
			e.stats[id] = row
		}
		merged := make([]Posting, 0, old.Len()-(hi-lo))
		merged = append(merged, old.Slice(0, lo)...)
		merged = append(merged, old.Slice(hi, old.Len())...)
		if len(merged) == 0 {
			if len(e.stats) != 0 {
				return fmt.Errorf("index: delete of %s: %q lost its last posting but keeps %d stat rows", sub.ID, term, len(e.stats))
			}
			delete(ix.terms, term)
			delete(m.changed, term)
			delete(m.cloned, term)
			m.removed[term] = true
			continue
		}
		e.list.Store(NewList(term, merged))
		e.listLen = uint32(len(merged))
	}
	if len(sub.ID) == 2 {
		for i, p := range ix.partRoot {
			if dewey.Equal(p, sub.ID) {
				ix.partRoot = append(append([]dewey.ID(nil), ix.partRoot[:i]...), ix.partRoot[i+1:]...)
				break
			}
		}
	}
	ix.NodeCount -= c.nodes
	return nil
}

// SaveDelta writes the derivation into the store: document-level metadata
// always (node counts and stats changed), removed terms' rows and lists
// deleted, changed terms' rows and lists rewritten. It does not commit —
// the caller batches it with the document rewrite and the epoch bump into
// one atomic commit.
func (m *Mutator) SaveDelta(s storage.Backend) error {
	ix := m.ix
	if n := ix.Types.Len(); n > 0 {
		m.growType(n - 1)
	}
	if err := ix.saveMeta(s); err != nil {
		return err
	}
	for _, term := range m.Removed() {
		if err := deleteTerm(s, term); err != nil {
			return err
		}
	}
	for _, term := range m.Changed() {
		e := ix.terms[term]
		if err := saveTerm(s, term, e.list.Load(), e.stats); err != nil {
			return err
		}
	}
	return nil
}
