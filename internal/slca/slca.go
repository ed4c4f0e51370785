// Package slca computes Smallest Lowest Common Ancestors, the conjunctive
// matching semantics XML keyword search is built on: a node is an SLCA of a
// query when its subtree contains every query keyword and no descendant's
// subtree does too.
//
// The engine serves one algorithm, XKSearch's Scan Eager [3]: anchors come
// from the shortest list and the other lists keep forward cursors, so the
// whole computation is one coordinated scan. The paper's other SLCA
// algorithms (Stack, Indexed Lookup Eager, Multiway and a naive definition
// check) live in internal/experiments/reference, whose tests hold them
// equal to this one (Lemma 3).
//
// The scan runs over decoded postings: ScanEager takes each keyword's
// postings as a document-ordered []index.Posting and returns SLCAs in
// document order. It reads no List, so a caller that already holds the
// postings — the partition walk copies each partition's postings once —
// decodes nothing again. Compute and ScanEagerCtx take lists, decode each
// once into fresh postings, and run the same scan.
//
// The scan is pure over its input: it writes nothing but its own working
// memory. A returned ID is a capacity-capped prefix of an input posting
// ID: appending to it reallocates, and writing into it is not allowed. It
// lives as long as the postings it was cut from, so a caller that reuses
// its postings' memory copies the IDs it keeps. Callers may run any
// number of computations concurrently over shared postings — purity_test.go
// asserts it under the race detector.
//
// The working memory — the lists in shortest-first order, cursors and
// candidates — lives in a Scratch. ScanEager uses a fresh one per call; a
// caller making many calls keeps its own and calls Scratch.ScanEager, so
// they allocate nothing once its buffers have grown. A Scratch belongs to
// one goroutine.
package slca

import (
	"context"
	"slices"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
)

// Algorithm names an SLCA algorithm. Scan-eager is the only one, kept
// as a type for Compute's callers.
type Algorithm int

// AlgoScanEager is XKSearch's Scan Eager.
const AlgoScanEager Algorithm = 0

// Compute decodes lists once and runs scan-eager over their postings; the
// algorithm argument is ignored. The returned IDs are cut from the
// decoded postings, which nothing else references.
func Compute(_ Algorithm, lists []*index.List) []dewey.ID {
	return new(Scratch).scanEager(nil, decode(lists))
}

// ScanEagerCtx is Compute under a context: the scan checks for
// cancellation periodically and returns the context error the moment it
// observes one, so a canceled query never waits out a full-list
// computation. With an un-canceled context the output is Compute's.
func ScanEagerCtx(ctx context.Context, lists []*index.List) ([]dewey.ID, error) {
	c := newCanceler(ctx)
	ids := new(Scratch).scanEager(c, decode(lists))
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
	ordered [][]index.Posting
	cursors []int
	cands   []dewey.ID
}

// ScanEager runs scan-eager as the package-level ScanEager does, in s's
// buffers. The returned slice may alias s and is valid until the next
// call on s; the IDs in it live as long as the input postings.
func (s *Scratch) ScanEager(lists [][]index.Posting) []dewey.ID {
	return s.scanEager(nil, lists)
}

// decode reads every list once, in document order, into fresh postings:
// one posting buffer sized to the lists' total length and one component
// arena their IDs are cut from. It returns nil when a list is empty,
// since the SLCA of a query with an unmatched keyword is empty.
func decode(lists []*index.List) [][]index.Posting {
	total := 0
	for _, l := range lists {
		if l.Len() == 0 {
			return nil
		}
		total += l.Len()
	}
	posts := make([]index.Posting, 0, total)
	var arena []uint32
	out := make([][]index.Posting, len(lists))
	for i, l := range lists {
		c := l.NewCursor()
		start := len(posts)
		posts, arena = c.AppendUntil(posts, arena, nil)
		c.Close()
		out[i] = posts[start:len(posts):len(posts)]
	}
	return out
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
// list lengths. It is the unit the engine's SLCA metrics account in: the
// scan's work is bounded by a small function of this mass.
func Cost(lists [][]index.Posting) int {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	return n
}

// nonEmpty reports whether every list has at least one posting; SLCA of a
// query with an unmatched keyword is empty by the conjunctive semantics.
func nonEmpty(lists [][]index.Posting) bool {
	if len(lists) == 0 {
		return false
	}
	for _, l := range lists {
		if len(l) == 0 {
			return false
		}
	}
	return true
}

// shortestFirst returns the lists reordered so the shortest is first, ties
// in input order; the scan takes its anchors from the first. A stable
// insertion sort into s's buffer: query lists number a handful.
func (s *Scratch) shortestFirst(lists [][]index.Posting) [][]index.Posting {
	out := append(s.ordered[:0], lists...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && len(out[j]) < len(out[j-1]); j-- {
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

// ScanEager implements XKSearch's Scan Eager: take every posting of the
// shortest list as an anchor and find its matches in the other lists
// through forward cursors (Indexed Lookup Eager binary-searches instead;
// scanning wins when list sizes are comparable). Anchors arrive in increasing order,
// so each cursor only ever moves forward — the whole computation is a
// single coordinated scan.
func ScanEager(lists [][]index.Posting) []dewey.ID {
	return new(Scratch).scanEager(nil, lists)
}

func (s *Scratch) scanEager(c *canceler, lists [][]index.Posting) []dewey.ID {
	if !nonEmpty(lists) {
		return nil
	}
	ordered := s.shortestFirst(lists)
	anchors, others := ordered[0], ordered[1:]
	cursors := s.zeroCursors(len(others))
	cands := s.cands[:0]
	for _, a := range anchors {
		if c.stop() {
			return nil
		}
		// The folded x is always a prefix of anchor v: track its length.
		v := a.ID
		n := len(v)
		for j, l := range others {
			x := v[:n]
			// Position the cursor so that l[cursor-1] <= x < l[cursor]:
			// the two sides are exactly lm(x) and rm(x). Anchors increase
			// monotonically, but the folded x can jump back toward the
			// root (an ancestor sorts before its descendants), so the
			// cursor may also need to step back; the forward scan
			// dominates the cost in practice.
			for cursors[j] < len(l) && dewey.Compare(l[cursors[j]].ID, x) <= 0 {
				cursors[j]++
			}
			for cursors[j] > 0 && dewey.Compare(l[cursors[j]-1].ID, x) > 0 {
				cursors[j]--
			}
			best := 0
			if cursors[j] > 0 {
				best = dewey.LCALen(x, l[cursors[j]-1].ID)
			}
			if cursors[j] < len(l) {
				best = max(best, dewey.LCALen(x, l[cursors[j]].ID))
			}
			n = best
		}
		cands = append(cands, v[:n:n])
	}
	s.cands = cands
	return filterSLCA(cands)
}
