// Package slca computes Smallest Lowest Common Ancestors, the conjunctive
// matching semantics XML keyword search is built on: a node is an SLCA of a
// query when its subtree contains every query keyword and no descendant's
// subtree does too.
//
// The package provides the algorithm family the paper evaluates against and
// composes with (Section II and VIII):
//
//   - Stack: the stack-based merge algorithm of XKSearch [3], extended by
//     the paper's Algorithm 1,
//   - IndexedLookupEager: XKSearch's index-lookup algorithm driven by the
//     shortest list with binary-searched match probes,
//   - ScanEager: XKSearch's variant that advances cursors instead of
//     binary-searching, preferable when list lengths are comparable,
//   - Multiway: Multiway-SLCA [8], which maximizes anchor skipping,
//   - Naive: a brute-force reference used by tests and sanity checks.
//
// All functions take keyword inverted lists in document order and return
// SLCAs in document order. Every algorithm returns identical results; they
// differ only in cost model, which is the point of the paper's Figure 4.
//
// Every algorithm is pure over its input lists: it reads postings through
// the immutable List API and writes nothing but its own working memory.
// A returned ID is an immutable, capacity-capped prefix of a posting ID
// read through List.At (Stack, ELCA and Naive return fresh copies, under the
// same cap): appending to it reallocates, and writing into it is not allowed.
// Callers may therefore run any number of computations concurrently over
// shared lists — the property the parallel partition pipeline in
// internal/refine relies on. purity_test.go asserts it under the race
// detector.
//
// The working memory — the lists in shortest-first order, cursors and
// candidates — lives in a Scratch. Compute and the per-algorithm functions
// use a fresh one per call; a caller making many calls passes its own to
// Scratch.Compute, so they allocate nothing once its buffers have grown.
// A Scratch belongs to one goroutine.
package slca

import (
	"context"
	"slices"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
)

// Algorithm selects an SLCA computation strategy by name; it is the
// pluggable hook the refinement algorithms are orthogonal to (Lemma 3).
type Algorithm int

const (
	// AlgoScanEager is the default used by the paper's Partition and SLE
	// refinement algorithms.
	AlgoScanEager Algorithm = iota
	// AlgoIndexedLookupEager binary-searches the longer lists.
	AlgoIndexedLookupEager
	// AlgoStack merges all lists through a path stack.
	AlgoStack
	// AlgoMultiway maximizes skipping of redundant LCA computations.
	AlgoMultiway
)

// String names the algorithm as in the paper's figures.
func (a Algorithm) String() string {
	switch a {
	case AlgoScanEager:
		return "scan-eager"
	case AlgoIndexedLookupEager:
		return "indexed-lookup-eager"
	case AlgoStack:
		return "stack"
	case AlgoMultiway:
		return "multiway"
	}
	return "unknown"
}

// Compute runs the selected algorithm.
func Compute(algo Algorithm, lists []*index.List) []dewey.ID {
	ids, _ := ComputeCtx(context.Background(), algo, lists)
	return ids
}

// ComputeCtx runs the selected algorithm under a context: every algorithm
// checks for cancellation periodically inside its main loop and returns
// the context error the moment it observes one, so a canceled query never
// has to wait out a full-list computation. With an un-canceled context the
// output is identical to Compute.
func ComputeCtx(ctx context.Context, algo Algorithm, lists []*index.List) ([]dewey.ID, error) {
	c := newCanceler(ctx)
	ids := new(Scratch).compute(c, algo, lists)
	if err := c.err(); err != nil {
		return nil, err
	}
	return ids, nil
}

// Scratch is the working memory of SLCA computations: the lists in
// shortest-first order, the scan's cursors and the candidate buffer.
// Reused over calls, it lets a computation allocate nothing once its
// buffers have grown. The zero value is ready; a Scratch belongs to one
// goroutine.
type Scratch struct {
	ordered []*index.List
	cursors []int
	cands   []dewey.ID
}

// Compute runs the selected algorithm as the package-level Compute does,
// in s's buffers. The returned slice may alias s and is valid until the
// next call on s; the IDs in it stay valid indefinitely.
func (s *Scratch) Compute(algo Algorithm, lists []*index.List) []dewey.ID {
	return s.compute(nil, algo, lists)
}

func (s *Scratch) compute(c *canceler, algo Algorithm, lists []*index.List) []dewey.ID {
	// Lists arrive with whatever block cache the caller's window carries:
	// the refinement paths hand in Sub-windows of per-query views, so
	// successive SLCA calls over one query reuse each other's decoded
	// blocks. Callers fanning a shared resident list across goroutines
	// should View-wrap once per goroutine, not per call.
	switch algo {
	case AlgoIndexedLookupEager:
		return s.indexedLookupEager(c, lists)
	case AlgoStack:
		return stack(c, lists)
	case AlgoMultiway:
		return s.multiway(c, lists)
	default:
		return s.scanEager(c, lists)
	}
}

// canceler samples a context's cancellation state once every checkStride
// loop iterations — frequent enough for promptness, cheap enough for the
// per-posting hot loops. A nil canceler (background context) never stops.
type canceler struct {
	ctx     context.Context
	n       int
	stopped bool
}

const checkStride = 256

func newCanceler(ctx context.Context) *canceler {
	if ctx == nil || ctx == context.Background() {
		return nil
	}
	return &canceler{ctx: ctx}
}

// stop reports whether the computation should abandon its loop.
func (c *canceler) stop() bool {
	if c == nil {
		return false
	}
	if c.stopped {
		return true
	}
	c.n++
	if c.n%checkStride != 0 {
		return false
	}
	c.stopped = c.ctx.Err() != nil
	return c.stopped
}

func (c *canceler) err() error {
	if c == nil || !c.stopped {
		return nil
	}
	return c.ctx.Err()
}

// Cost returns the posting mass of a computation's input — the sum of
// list lengths. It is the unit the engine's SLCA metrics account in:
// every algorithm's work is bounded by a small function of this mass, so
// it is the algorithm-independent observable.
func Cost(lists []*index.List) int {
	n := 0
	for _, l := range lists {
		n += l.Len()
	}
	return n
}

// nonEmpty reports whether every list has at least one posting; SLCA of a
// query with an unmatched keyword is empty by the conjunctive semantics.
func nonEmpty(lists []*index.List) bool {
	if len(lists) == 0 {
		return false
	}
	for _, l := range lists {
		if l.Len() == 0 {
			return false
		}
	}
	return true
}

// shortestFirst returns the lists reordered so the shortest is first, ties
// in input order; the anchor-driven algorithms iterate over it. A stable
// insertion sort into s's buffer: query lists number a handful.
func (s *Scratch) shortestFirst(lists []*index.List) []*index.List {
	out := append(s.ordered[:0], lists...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Len() < out[j-1].Len(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	s.ordered = out
	return out
}

// zeroCursors returns n cursors at position 0 in s's buffer.
func (s *Scratch) zeroCursors(n int) []int {
	if cap(s.cursors) < n {
		s.cursors = make([]int, n)
	}
	s.cursors = s.cursors[:n]
	clear(s.cursors)
	return s.cursors
}

// filterSLCA reduces LCA candidates to SLCAs in place: sort into document
// order, dedup, then drop every candidate with a candidate descendant. In
// document order an ancestor immediately precedes a contiguous run of its
// subtree, so one linear pass suffices.
func filterSLCA(cands []dewey.ID) []dewey.ID {
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

// anchorLen computes the smallest node containing anchor v and at least
// one match from every list of others — XKSearch's slca(v) construction:
// fold over the lists, each step keeping whichever of the left match
// lm(x, S) and right match rm(x, S) yields the deeper LCA with the current
// subtree root x. Every x is a prefix of v, so the fold tracks only its
// length and the node is v[:anchorLen(v, others)].
func anchorLen(v dewey.ID, others []*index.List) int {
	n := len(v)
	for _, s := range others {
		x, best := v[:n], 0
		if l, ok := s.LM(x); ok {
			best = dewey.LCALen(x, l.ID)
		}
		if r, ok := s.RM(x); ok {
			best = max(best, dewey.LCALen(x, r.ID))
		}
		n = best // nonEmpty guarantees a match on some side
	}
	return n
}

// IndexedLookupEager implements XKSearch's Indexed Lookup Eager: iterate
// anchors from the shortest list and probe the other lists with binary
// searches. Cost O(|S1| * m * d * log|S|max).
func IndexedLookupEager(lists []*index.List) []dewey.ID {
	return new(Scratch).indexedLookupEager(nil, lists)
}

func (s *Scratch) indexedLookupEager(c *canceler, lists []*index.List) []dewey.ID {
	if !nonEmpty(lists) {
		return nil
	}
	ordered := s.shortestFirst(lists)
	anchors, others := ordered[0], ordered[1:]
	cands := s.cands[:0]
	for i := 0; i < anchors.Len(); i++ {
		if c.stop() {
			return nil
		}
		v := anchors.At(i).ID
		n := anchorLen(v, others)
		cands = append(cands, v[:n:n])
	}
	s.cands = cands
	return filterSLCA(cands)
}

// Multiway implements the anchor-skipping idea of Multiway-SLCA [8]: each
// iteration anchors on the document-order maximum of the lists' current
// heads instead of walking every node of the smallest list, then advances
// every cursor past the anchor. One candidate LCA computation can thereby
// consume many postings from each list.
func Multiway(lists []*index.List) []dewey.ID {
	return new(Scratch).multiway(nil, lists)
}

func (s *Scratch) multiway(c *canceler, lists []*index.List) []dewey.ID {
	if !nonEmpty(lists) {
		return nil
	}
	cursors := s.zeroCursors(len(lists))
	cands := s.cands[:0]
	for {
		if c.stop() {
			return nil
		}
		// Anchor u: the max of the current heads. Any list exhausted
		// ends the computation — no further node can cover it beyond
		// matches already considered via LM probes.
		var u dewey.ID
		for i, l := range lists {
			if cursors[i] >= l.Len() {
				s.cands = cands
				return filterSLCA(cands)
			}
			if head := l.At(cursors[i]).ID; u == nil || dewey.Compare(head, u) > 0 {
				u = head
			}
		}
		// Candidate anchored at u, matched against every list. Probes
		// use the full lists (binary search), so matches before consumed
		// cursors stay visible.
		n := anchorLen(u, lists)
		cands = append(cands, u[:n:n])
		// Skip: every posting <= u in every list is covered.
		for i, l := range lists {
			cursors[i] = l.SeekGT(u)
		}
	}
}

// ScanEager implements XKSearch's Scan Eager: like IndexedLookupEager, but
// the other lists keep forward cursors instead of binary searching, which
// wins when list sizes are comparable. Anchors arrive in increasing order,
// so each cursor only ever moves forward — the whole computation is a
// single coordinated scan.
func ScanEager(lists []*index.List) []dewey.ID {
	return new(Scratch).scanEager(nil, lists)
}

func (s *Scratch) scanEager(c *canceler, lists []*index.List) []dewey.ID {
	if !nonEmpty(lists) {
		return nil
	}
	ordered := s.shortestFirst(lists)
	anchors, others := ordered[0], ordered[1:]
	cursors := s.zeroCursors(len(others))
	cands := s.cands[:0]
	for i := 0; i < anchors.Len(); i++ {
		if c.stop() {
			return nil
		}
		// The folded x is always a prefix of anchor v: track its length.
		v := anchors.At(i).ID
		n := len(v)
		for j, l := range others {
			x := v[:n]
			// Position the cursor so that postings[cursor-1] <= x <
			// postings[cursor]: the two sides are exactly lm(x) and
			// rm(x). Anchors increase monotonically, but the folded x
			// can jump back toward the root (an ancestor sorts before
			// its descendants), so the cursor may also need to step
			// back; the forward scan dominates the cost in practice.
			for cursors[j] < l.Len() && dewey.Compare(l.At(cursors[j]).ID, x) <= 0 {
				cursors[j]++
			}
			for cursors[j] > 0 && dewey.Compare(l.At(cursors[j]-1).ID, x) > 0 {
				cursors[j]--
			}
			best := 0
			if cursors[j] > 0 {
				best = dewey.LCALen(x, l.At(cursors[j]-1).ID)
			}
			if cursors[j] < l.Len() {
				best = max(best, dewey.LCALen(x, l.At(cursors[j]).ID))
			}
			n = best
		}
		cands = append(cands, v[:n:n])
	}
	s.cands = cands
	return filterSLCA(cands)
}

// Stack implements the stack-based merge algorithm: all lists merge into
// one document-ordered stream; a stack mirrors the current root-to-node
// path, each entry accumulating which keywords its subtree has produced.
// An entry popped with every keyword present and no SLCA already reported
// below it is an SLCA.
func Stack(lists []*index.List) []dewey.ID {
	return stack(nil, lists)
}

func stack(c *canceler, lists []*index.List) []dewey.ID {
	if !nonEmpty(lists) {
		return nil
	}
	full := uint64(1)<<len(lists) - 1
	merge := newMergeScan(lists)
	defer merge.close()

	type entry struct {
		component uint32
		mask      uint64
		below     bool // an SLCA was reported in a strict descendant
	}
	var stack []entry
	var path dewey.ID // dewey of the node the whole stack denotes
	var out []dewey.ID

	// pop removes the deepest entry, reporting it when it qualifies, and
	// propagates mask and below-flag to its parent.
	pop := func() {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		reported := false
		if e.mask == full && !e.below {
			out = append(out, path.Clone())
			reported = true
		}
		path = path[:len(path)-1]
		if len(stack) > 0 {
			stack[len(stack)-1].mask |= e.mask
			stack[len(stack)-1].below = stack[len(stack)-1].below || e.below || reported
		}
	}

	for {
		if c.stop() {
			return nil
		}
		id, mask, ok := merge.next()
		if !ok {
			break
		}
		keep := dewey.LCALen(path, id)
		for len(stack) > keep {
			pop()
		}
		for len(path) < len(id) {
			c := id[len(path)]
			path = append(path, c)
			stack = append(stack, entry{component: c})
		}
		stack[len(stack)-1].mask |= mask
	}
	for len(stack) > 0 {
		pop()
	}
	// The stream is document-ordered but pops emit an ancestor after all
	// its descendants yet possibly between siblings, so order the output.
	slices.SortFunc(out, dewey.Compare)
	return out
}

// mergeScan yields (dewey, keywordMask) pairs in document order, combining
// the masks of lists that contain the same node. Each list is read
// through a pooled block cursor; the yielded ID is owned by the scan and
// valid only until the next call, and close() must run when the merge
// ends to recycle the cursors' decode buffers.
type mergeScan struct {
	curs []*index.Cursor
	cur  dewey.ID // owned copy of the yielded minimum (reused per call)
}

func newMergeScan(lists []*index.List) *mergeScan {
	m := &mergeScan{curs: make([]*index.Cursor, len(lists))}
	for i, l := range lists {
		m.curs[i] = l.NewCursor()
	}
	return m
}

func (m *mergeScan) close() {
	for _, c := range m.curs {
		c.Close()
	}
}

func (m *mergeScan) next() (dewey.ID, uint64, bool) {
	// The minimum is copied into m.cur before any cursor advances: the
	// heads alias per-cursor decode buffers that later reads recycle.
	found := false
	for _, c := range m.curs {
		if !c.Valid() {
			continue
		}
		if id := c.ID(); !found || dewey.Compare(id, m.cur) < 0 {
			m.cur = append(m.cur[:0], id...)
			found = true
		}
	}
	if !found {
		return nil, 0, false
	}
	var mask uint64
	for i, c := range m.curs {
		if c.Valid() && dewey.Equal(c.ID(), m.cur) {
			mask |= 1 << i
			c.Next()
		}
	}
	return m.cur, mask, true
}

// Naive is the brute-force reference: materialize every node that contains
// all keywords (the union of posting ancestors), then keep the minimal
// ones. Quadratic-ish and only for tests and tiny inputs.
func Naive(lists []*index.List) []dewey.ID {
	if !nonEmpty(lists) {
		return nil
	}
	// count, for every ancestor node, which keywords its subtree has
	contains := make(map[string]uint64)
	keyOf := func(d dewey.ID) string { return string(d.Bytes()) }
	ids := make(map[string]dewey.ID)
	for i, l := range lists {
		for _, p := range l.Postings() {
			for n := 1; n <= len(p.ID); n++ {
				anc := p.ID[:n]
				k := keyOf(anc)
				contains[k] |= 1 << i
				if _, ok := ids[k]; !ok {
					ids[k] = anc.Clone()
				}
			}
		}
	}
	full := uint64(1)<<len(lists) - 1
	var cands []dewey.ID
	for k, mask := range contains {
		if mask == full {
			cands = append(cands, ids[k])
		}
	}
	return filterSLCA(cands)
}
