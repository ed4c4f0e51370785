package slca

import (
	"slices"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
)

// ELCA computes Exclusive LCAs — the result semantics of XRank, the other
// major LCA variant in the paper's related work. A node v is an ELCA when
// its subtree contains every keyword *witnessed outside* any descendant
// whose subtree already contains all keywords: v must justify its
// membership with its own evidence, not evidence swallowed by a complete
// descendant. Every SLCA is an ELCA; ELCA additionally surfaces ancestors
// with independent witnesses.
//
// Implementation: the same document-ordered merge and path stack as Stack,
// but each entry carries two keyword masks —
//
//	all:  every keyword occurring below the entry,
//	own:  keywords witnessed below the entry but outside complete
//	      (all-keyword) descendants.
//
// On pop, an entry with a full own-mask is an ELCA. Its parent inherits
// the all-mask unconditionally, but inherits the own-mask only when the
// child's subtree was not itself complete — a complete subtree absorbs all
// its witnesses, which is exactly the exclusion in the definition.
func ELCA(lists []*index.List) []dewey.ID {
	if !nonEmpty(lists) {
		return nil
	}
	full := uint64(1)<<len(lists) - 1
	merge := newMergeScan(lists)
	defer merge.close()

	type entry struct {
		all uint64
		own uint64
	}
	var stack []entry
	var path dewey.ID
	var out []dewey.ID

	pop := func() {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.own == full {
			out = append(out, path.Clone())
		}
		path = path[:len(path)-1]
		if len(stack) > 0 {
			top := &stack[len(stack)-1]
			top.all |= e.all
			if e.all != full {
				top.own |= e.own
			}
		}
	}

	for {
		id, mask, ok := merge.next()
		if !ok {
			break
		}
		keep := dewey.LCALen(path, id)
		for len(stack) > keep {
			pop()
		}
		for len(path) < len(id) {
			path = append(path, id[len(path)])
			stack = append(stack, entry{})
		}
		stack[len(stack)-1].all |= mask
		stack[len(stack)-1].own |= mask
	}
	for len(stack) > 0 {
		pop()
	}
	slices.SortFunc(out, dewey.Compare)
	return out
}

// NaiveELCA is the brute-force reference for tests: for every node that
// contains all keywords, check the definition directly — some witness per
// keyword not inside any complete proper descendant.
func NaiveELCA(lists []*index.List) []dewey.ID {
	if !nonEmpty(lists) {
		return nil
	}
	// Gather, per ancestor node, the set of keywords below it.
	type info struct {
		id   dewey.ID
		mask uint64
	}
	nodes := map[string]*info{}
	keyOf := func(d dewey.ID) string { return string(d.Bytes()) }
	for i, l := range lists {
		for _, p := range l.Postings() {
			for n := 1; n <= len(p.ID); n++ {
				anc := p.ID[:n]
				k := keyOf(anc)
				if nodes[k] == nil {
					nodes[k] = &info{id: anc.Clone()}
				}
				nodes[k].mask |= 1 << i
			}
		}
	}
	full := uint64(1)<<len(lists) - 1
	var complete []dewey.ID
	for _, inf := range nodes {
		if inf.mask == full {
			complete = append(complete, inf.id)
		}
	}
	var out []dewey.ID
	for _, v := range complete {
		// Witness check per keyword: some posting under v that is not
		// under any complete strict descendant of v.
		isELCA := true
		for _, l := range lists {
			found := false
			s, e := l.InSubtree(v)
			for i := s; i < e && !found; i++ {
				p := l.At(i)
				covered := false
				for _, c := range complete {
					if dewey.IsAncestor(v, c) && dewey.IsAncestorOrSelf(c, p.ID) {
						covered = true
						break
					}
				}
				if !covered {
					found = true
				}
			}
			if !found {
				isELCA = false
				break
			}
		}
		if isELCA {
			out = append(out, v)
		}
	}
	slices.SortFunc(out, dewey.Compare)
	return out
}
