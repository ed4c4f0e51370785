// Package reference holds the paper's algorithms that the engine does not
// serve. They are here to check the served ones and to time them in the
// experiments:
//
//   - SLCA: Stack, the stack-based merge of XKSearch [3];
//     IndexedLookupEager, XKSearch's index-lookup algorithm; Multiway,
//     Multiway-SLCA [8]; and Naive, a brute-force definition check. The
//     served scan-eager lives in package slca, and the tests hold it equal
//     to all four (Lemma 3).
//   - ELCA and NaiveELCA: the exclusive-LCA semantics of XRank.
//   - StackRefine (Algorithm 1) and ShortListEager (Algorithm 3), the two
//     refinement algorithms the paper compares the served partition walk
//     (Algorithm 2) against. StackExplorer and ShortListEager plug into
//     core.NewWithExplorer, so they answer under the engine's pipeline.
//
// Every algorithm reads fully decoded posting slices in document order and
// uses sort.Search where it needs a seek. Nothing here has a budget,
// tracing or scratch memory: the code is meant to be obviously correct
// and fast enough at experiment scale.
package reference

import (
	"slices"
	"sort"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
)

// seekGE returns the index of the first posting of l with ID >= d, or
// len(l).
func seekGE(l []index.Posting, d dewey.ID) int {
	return sort.Search(len(l), func(i int) bool { return dewey.Compare(l[i].ID, d) >= 0 })
}

// seekGT returns the index of the first posting of l with ID > d, or
// len(l).
func seekGT(l []index.Posting, d dewey.ID) int {
	return sort.Search(len(l), func(i int) bool { return dewey.Compare(l[i].ID, d) > 0 })
}

// inSubtree returns the index interval of l's postings inside the subtree
// rooted at root, root included.
func inSubtree(l []index.Posting, root dewey.ID) (int, int) {
	return seekGE(l, root), seekGE(l, root.Next())
}

// nonEmpty reports whether there is at least one list and every list has a
// posting: the SLCA of a query with an unmatched keyword is empty.
func nonEmpty(lists [][]index.Posting) bool {
	for _, l := range lists {
		if len(l) == 0 {
			return false
		}
	}
	return len(lists) > 0
}

// smallest reduces LCA candidates to SLCAs in place: sort, dedup, and drop
// every candidate with a candidate descendant, which in document order
// immediately follows it.
func smallest(cands []dewey.ID) []dewey.ID {
	if len(cands) == 0 {
		return nil
	}
	slices.SortFunc(cands, dewey.Compare)
	cands = slices.CompactFunc(cands, dewey.Equal)
	out := cands[:0]
	for i, c := range cands {
		if i+1 < len(cands) && dewey.IsAncestor(c, cands[i+1]) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// anchorLen computes the smallest node containing anchor v and a posting
// of every list in others, as XKSearch's slca(v) does: fold over the
// lists, each step keeping whichever of the left match lm(x) (the last
// posting <= x) and the right match rm(x) (the first posting > x) gives
// the deeper LCA with the current node x. Every x is a prefix of v, so the
// node is v[:anchorLen(v, others)].
func anchorLen(v dewey.ID, others [][]index.Posting) int {
	n := len(v)
	for _, s := range others {
		x := v[:n]
		i := seekGT(s, x)
		best := 0
		if i > 0 {
			best = dewey.LCALen(x, s[i-1].ID)
		}
		if i < len(s) {
			best = max(best, dewey.LCALen(x, s[i].ID))
		}
		n = best
	}
	return n
}

// IndexedLookupEager is XKSearch's Indexed Lookup Eager: take every
// posting of the shortest list as an anchor and binary-search the other
// lists for its matches.
func IndexedLookupEager(lists [][]index.Posting) []dewey.ID {
	if !nonEmpty(lists) {
		return nil
	}
	ordered := slices.Clone(lists)
	slices.SortStableFunc(ordered, func(a, b []index.Posting) int { return len(a) - len(b) })
	var cands []dewey.ID
	for _, p := range ordered[0] {
		n := anchorLen(p.ID, ordered[1:])
		cands = append(cands, p.ID[:n:n])
	}
	return smallest(cands)
}

// Multiway follows Multiway-SLCA [8]: each step anchors on the largest of
// the lists' current heads, computes its candidate against the full lists,
// and moves every cursor past the anchor, so one candidate can consume many
// postings of every list.
func Multiway(lists [][]index.Posting) []dewey.ID {
	if !nonEmpty(lists) {
		return nil
	}
	cursors := make([]int, len(lists))
	var cands []dewey.ID
	for {
		var u dewey.ID
		for i, l := range lists {
			if cursors[i] >= len(l) {
				return smallest(cands)
			}
			if head := l[cursors[i]].ID; u == nil || dewey.Compare(head, u) > 0 {
				u = head
			}
		}
		n := anchorLen(u, lists)
		cands = append(cands, u[:n:n])
		for i, l := range lists {
			cursors[i] = seekGT(l, u)
		}
	}
}

// Naive materializes every node whose subtree holds all keywords (the
// union of the postings' ancestors) and keeps the smallest ones.
func Naive(lists [][]index.Posting) []dewey.ID {
	var cands []dewey.ID
	for _, n := range complete(lists) {
		cands = append(cands, n.id)
	}
	return smallest(cands)
}

// node is an ancestor of some posting, with the mask of lists that have a
// posting in its subtree.
type node struct {
	id   dewey.ID
	mask uint64
}

// complete returns the nodes whose subtree holds a posting of every list,
// in no particular order.
func complete(lists [][]index.Posting) []node {
	if !nonEmpty(lists) {
		return nil
	}
	nodes := map[string]*node{}
	for i, l := range lists {
		for _, p := range l {
			for n := 1; n <= len(p.ID); n++ {
				k := string(p.ID[:n].Bytes())
				if nodes[k] == nil {
					nodes[k] = &node{id: p.ID[:n:n]}
				}
				nodes[k].mask |= 1 << i
			}
		}
	}
	full := uint64(1)<<len(lists) - 1
	var out []node
	for _, n := range nodes {
		if n.mask == full {
			out = append(out, *n)
		}
	}
	return out
}

// merge is the document-order merge of keyword lists that Stack, ELCA and
// StackRefine walk: each step yields one distinct node, the mask of the
// lists holding it and its posting.
type merge struct {
	lists [][]index.Posting
	pos   []int
}

func newMerge(lists [][]index.Posting) *merge {
	return &merge{lists: lists, pos: make([]int, len(lists))}
}

func (m *merge) next() (index.Posting, uint64, bool) {
	var head index.Posting
	for i, l := range m.lists {
		if m.pos[i] < len(l) && (head.ID == nil || dewey.Compare(l[m.pos[i]].ID, head.ID) < 0) {
			head = l[m.pos[i]]
		}
	}
	if head.ID == nil {
		return head, 0, false
	}
	var mask uint64
	for i, l := range m.lists {
		if m.pos[i] < len(l) && dewey.Equal(l[m.pos[i]].ID, head.ID) {
			mask |= 1 << i
			m.pos[i]++
		}
	}
	return head, mask, true
}

// pathStack mirrors the root-to-node path of the merge's current posting:
// one entry per path component. walk pushes and pops entries as the merge
// moves through the document, and every entry is popped exactly once,
// deepest first, after its whole subtree has been merged.
type pathStack[E any] struct {
	entries []E
	path    dewey.ID // the node the deepest entry denotes
}

// walk runs the merge of lists to its end. For each posting it pops the
// entries off the path that the posting leaves, pushes one from push(depth,
// posting) for each new component and calls add with the posting's mask
// on the deepest entry. pop receives the entry and, in path, its node's
// label, valid only during the call.
func (s *pathStack[E]) walk(lists [][]index.Posting, push func(depth int, p index.Posting) (E, error), add func(e *E, mask uint64), pop func(e E)) error {
	m := newMerge(lists)
	for {
		p, mask, ok := m.next()
		if !ok {
			break
		}
		for keep := dewey.LCALen(s.path, p.ID); len(s.entries) > keep; {
			s.pop(pop)
		}
		for len(s.path) < len(p.ID) {
			e, err := push(len(s.path), p)
			if err != nil {
				return err
			}
			s.path = append(s.path, p.ID[len(s.path)])
			s.entries = append(s.entries, e)
		}
		add(&s.entries[len(s.entries)-1], mask)
	}
	for len(s.entries) > 0 {
		s.pop(pop)
	}
	return nil
}

func (s *pathStack[E]) pop(pop func(e E)) {
	e := s.entries[len(s.entries)-1]
	s.entries = s.entries[:len(s.entries)-1]
	pop(e)
	s.path = s.path[:len(s.path)-1]
}

// parent returns, during a pop, the popped entry's parent (now the deepest
// entry), or nil when the root was popped.
func (s *pathStack[E]) parent() *E {
	if len(s.entries) == 0 {
		return nil
	}
	return &s.entries[len(s.entries)-1]
}

// Stack is the stack-based merge algorithm: all lists merge into one
// document-ordered stream, a stack mirrors the current path, and each
// entry accumulates the keywords its subtree has produced. An entry popped
// with every keyword and no SLCA reported below it is an SLCA.
func Stack(lists [][]index.Posting) []dewey.ID {
	if !nonEmpty(lists) {
		return nil
	}
	full := uint64(1)<<len(lists) - 1
	type entry struct {
		mask  uint64
		below bool // an SLCA was reported in a strict descendant
	}
	var s pathStack[entry]
	var out []dewey.ID
	_ = s.walk(lists, // push never fails, so neither does the walk
		func(int, index.Posting) (entry, error) { return entry{}, nil },
		func(e *entry, mask uint64) { e.mask |= mask },
		func(e entry) {
			reported := e.mask == full && !e.below
			if reported {
				out = append(out, s.path.Clone())
			}
			if p := s.parent(); p != nil {
				p.mask |= e.mask
				p.below = p.below || e.below || reported
			}
		})
	slices.SortFunc(out, dewey.Compare)
	return out
}

// ELCA computes Exclusive LCAs, the result semantics of XRank: a node is
// an ELCA when its subtree holds every keyword witnessed outside any
// descendant whose subtree already holds all keywords. Every SLCA is an
// ELCA; ELCA also surfaces ancestors with witnesses of their own.
//
// It walks the same merge and path stack as Stack, each entry carrying two
// masks: all, every keyword below the entry, and own, the keywords below it
// but outside complete descendants. A popped entry with a full own mask is
// an ELCA. Its parent inherits all always, and own only when the child was
// not itself complete: a complete subtree absorbs its witnesses.
func ELCA(lists [][]index.Posting) []dewey.ID {
	if !nonEmpty(lists) {
		return nil
	}
	full := uint64(1)<<len(lists) - 1
	type entry struct{ all, own uint64 }
	var s pathStack[entry]
	var out []dewey.ID
	_ = s.walk(lists, // push never fails, so neither does the walk
		func(int, index.Posting) (entry, error) { return entry{}, nil },
		func(e *entry, mask uint64) { e.all |= mask; e.own |= mask },
		func(e entry) {
			if e.own == full {
				out = append(out, s.path.Clone())
			}
			if p := s.parent(); p != nil {
				p.all |= e.all
				if e.all != full {
					p.own |= e.own
				}
			}
		})
	slices.SortFunc(out, dewey.Compare)
	return out
}

// NaiveELCA checks the ELCA definition directly: a node holding every
// keyword is an ELCA when each list has a posting below it that lies in
// no complete strict descendant.
func NaiveELCA(lists [][]index.Posting) []dewey.ID {
	all := complete(lists)
	var out []dewey.ID
	for _, v := range all {
		witnessed := true
		for _, l := range lists {
			s, e := inSubtree(l, v.id)
			witnessed = slices.ContainsFunc(l[s:e], func(p index.Posting) bool {
				return !slices.ContainsFunc(all, func(c node) bool {
					return dewey.IsAncestor(v.id, c.id) && dewey.IsAncestorOrSelf(c.id, p.ID)
				})
			})
			if !witnessed {
				break
			}
		}
		if witnessed {
			out = append(out, v.id)
		}
	}
	slices.SortFunc(out, dewey.Compare)
	return out
}
