package index

import (
	"fmt"
	"sort"

	"xrefine/internal/dewey"
	"xrefine/internal/tokenize"
	"xrefine/internal/xmltree"
)

// Merge combines the indexes of shard sub-documents into one logical
// corpus index whose every statistic — df/tf rows, N_T, G_T, list lengths,
// partition roots, CoDF (computed lazily from the merged lists) — is
// exactly what Build would produce over the concatenated corpus. The
// sharded query path depends on that exactness: rule generation, search-for
// inference and Formula-10 ranking all run against this index, so any
// deviation would silently change scores relative to a monolithic engine.
//
// The contract (guaranteed by xmltree.Document.Subset and enforced by
// shard.WriteStores): every part is a sub-document of one corpus, holding a
// copy of the same bare container root (its tag token is its only term)
// plus a disjoint set of partitions that keep their global Dewey labels,
// and all parts share one type registry. Disjointness makes every per-type
// and per-term statistic additive; the replicated root is the single node
// counted once per shard, so its contributions are collapsed back to one:
// the root type's N_T clamps to 1, every term's df at the root type clamps
// to 1 (one corpus root subtree contains it), and the root tag term sheds
// the duplicate root postings from its list length and root-type tf.
//
// Posting lists materialize lazily as k-way merges of the shard lists with
// the replicated root posting deduplicated, so CoDF sees exactly the
// monolithic lists. CoDF is their only reader: the router's partition walk
// scans the shard lists themselves.
func Merge(parts []*Index) (*Index, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("index: merge of zero shards")
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	reg := parts[0].Types
	for _, p := range parts[1:] {
		if p.Types != reg {
			return nil, fmt.Errorf("index: merge: shards do not share a type registry")
		}
	}
	ix := &Index{
		Types:   reg,
		Root:    dewey.Root(),
		terms:   make(map[string]*kwEntry),
		coCache: make(map[coKey]int),
		stat:    &opStat{},
	}
	dup := uint32(len(parts) - 1)
	for _, p := range parts {
		ix.NodeCount += p.NodeCount
	}
	ix.NodeCount -= int(dup)

	// N_T: partitions are disjoint below the root, so per-type node counts
	// add; the replicated root collapses back to a single node.
	ix.nt = make([]uint32, reg.Len())
	for _, p := range parts {
		for i, v := range p.nt {
			ix.nt[i] += v
		}
	}
	var rootType *xmltree.Type
	for _, t := range reg.Types() {
		if t.Depth != 0 || t.ID >= len(ix.nt) || ix.nt[t.ID] == 0 {
			continue
		}
		if rootType != nil {
			return nil, fmt.Errorf("index: merge: shards disagree on the corpus root type (%s vs %s)", rootType.Tag, t.Tag)
		}
		rootType = t
		ix.nt[t.ID] = 1
	}
	if rootType == nil {
		return nil, fmt.Errorf("index: merge: no corpus root type")
	}
	rootTerm := tokenize.Tag(rootType.Tag)

	for _, p := range parts {
		for term, e := range p.terms {
			m := ix.terms[term]
			if m == nil {
				m = &kwEntry{stats: make(map[int]typeStat, len(e.stats))}
				ix.terms[term] = m
			}
			m.listLen += e.listLen
			for tid, st := range e.stats {
				row := m.stats[tid]
				row.df += st.df
				row.tf += st.tf
				m.stats[tid] = row
			}
		}
	}
	for term, m := range ix.terms {
		row, ok := m.stats[rootType.ID]
		if !ok {
			continue
		}
		if row.df > 1 {
			row.df = 1
		}
		if term == rootTerm && rootTerm != "" {
			row.tf -= dup
			m.listLen -= dup
		}
		m.stats[rootType.ID] = row
	}

	// G_T from the merged rows, exactly as Build derives it.
	ix.gt = make([]uint32, reg.Len())
	for _, e := range ix.terms {
		for tid := range e.stats {
			ix.gt[tid]++
		}
	}

	for _, p := range parts {
		ix.partRoot = append(ix.partRoot, p.partRoot...)
	}
	sort.Slice(ix.partRoot, func(i, j int) bool {
		return dewey.Compare(ix.partRoot[i], ix.partRoot[j]) < 0
	})

	ix.loader = func(term string) (*List, error) { return mergeLists(term, parts) }
	return ix, nil
}

// mergeLists builds the corpus-wide posting list of term as a k-way merge
// of the shard lists, streamed through cursors straight into a block
// encoder — the merged list is never materialized as []Posting. Shard
// partitions are disjoint, so the only IDs appearing in more than one
// list are the replicated root postings of the root tag term; equal IDs
// deduplicate to one (the encoder's strict-order input comes from
// skipping them, plus the shards' own document order).
func mergeLists(term string, parts []*Index) (*List, error) {
	var lists []*List
	for _, p := range parts {
		if !p.HasTerm(term) {
			continue
		}
		l, err := p.List(term)
		if err != nil {
			return nil, err
		}
		if l.Len() > 0 {
			lists = append(lists, l)
		}
	}
	curs := make([]*Cursor, len(lists))
	for i, l := range lists {
		curs[i] = l.NewCursor()
	}
	defer func() {
		for _, c := range curs {
			c.Close()
		}
	}()
	w := newBlockWriter(term, false)
	var last dewey.ID // owned copy of the last appended ID, for dedup
	haveLast := false
	for {
		best := -1
		var bestID dewey.ID
		for i, c := range curs {
			if !c.Valid() {
				continue
			}
			// id aliases cursor i's scratch; it is only read before any
			// cursor advances, so no decode can recycle it underneath us.
			id := c.ID()
			if best < 0 || dewey.Compare(id, bestID) < 0 {
				best, bestID = i, id
			}
		}
		if best < 0 {
			break
		}
		if !haveLast || !dewey.Equal(last, bestID) {
			p := curs[best].Posting()
			if err := w.Append(p.ID, p.Type); err != nil {
				return nil, err
			}
			last = append(last[:0], bestID...)
			haveLast = true
		}
		curs[best].Next()
	}
	return newListFromCore(term, w.Finish()), nil
}
