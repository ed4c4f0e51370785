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
// partition roots — is exactly what Build would produce over the
// concatenated corpus. The sharded query path depends on that exactness:
// rule generation, search-for inference and Formula-10 ranking all run
// against this index, so any deviation would silently change scores
// relative to a monolithic engine.
//
// parts[i] is shard i's index. The contract (guaranteed by
// xmltree.Document.Subset and enforced by shard.WriteStores): every shard
// is a sub-document of one corpus, holding a copy of the same bare
// container root (its tag token is its only term) plus a disjoint set of
// partitions that keep their global Dewey labels, and all shards share one
// type registry. Disjointness makes every
// per-type and per-term statistic additive; the replicated root is the
// single node counted once per shard, so its contributions are collapsed
// back to one: the root type's N_T clamps to 1, every term's df at the
// root type clamps to 1 (one corpus root subtree contains it), and the
// root tag term sheds the duplicate root postings from its list length and
// root-type tf.
//
// The merged index holds statistics only, never posting lists: List and
// CoDF on it fail. The router's partition walk scans the shard lists
// themselves, and counts the co-occurrence ranking reads as it goes.
func Merge(parts []*Index) (*Index, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("index: merge of zero shards")
	}
	reg := parts[0].Types
	for _, p := range parts[1:] {
		if p.Types != reg {
			return nil, fmt.Errorf("index: merge: shards do not share a type registry")
		}
	}
	ix := &Index{
		Types: reg,
		Root:  dewey.Root(),
		terms: make(map[string]*kwEntry),
		stat:  &opStat{},
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

	return ix, nil
}
