package refine

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"

	"xrefine/internal/rules"
)

// This file implements getOptimalRQ (Section V): given the original query
// Q = S and a set T of keywords that actually occur in (some region of) the
// data, find the refined query RQ ⊆ T with minimum dissimilarity dSim(Q,RQ)
// under the rule set, by dynamic programming over prefixes of Q
// (Formula 11):
//
//	C[0] = 0
//	C[i] = min( C[i-1]            if k_i ∈ T        (option 1: keep)
//	          , C[i-1] + del      always            (option 2: delete)
//	          , C[i-|LHS(r)|]+ds_r for each rule r with LHS a suffix of
//	                               S[1..i] and RHS ⊆ T  (option 3) )
//
// The top-2K extension keeps the best partial refinements per cell instead
// of a single one — the paper's "intermediate results kept during the
// processing of getOptimalRQ" made precise. It is a beam search: like the
// paper's, it surfaces *some* (not provably all) of the best non-optimal
// candidates, but the single best is exact.
//
// A keyword set is a bitset over the run's keyword universe, bits in
// sorted-keyword order: identity is word equality, and the lowest differing
// bit orders two equal-size sets as their keys. Partials are values in
// per-cell buffers, provenance a parent-linked list of step nodes, all in a
// dpScratch that one scan owns and reuses across masks; only the output is
// allocated. prune's tie rules pin which derivation's steps a set reports.

// Step records one refinement operation applied to produce an RQ — the
// provenance a user-facing "did you mean" needs ("corrected databse →
// database", "deleted fuzzy"). Kept keywords are not recorded; only
// changes are.
type Step struct {
	// Delete is the deleted query keyword when the step is a deletion;
	// empty for rule applications.
	Delete string
	// Rule is the applied refinement rule for non-deletion steps.
	Rule *rules.Rule
}

// String renders the step for humans.
func (s Step) String() string {
	if s.Delete != "" {
		return "delete " + s.Delete
	}
	if s.Rule != nil {
		return s.Rule.String()
	}
	return "?"
}

// dpPartial is one candidate refinement of a query prefix: its cost, its
// keyword set (offset in dpScratch.sets, and size) and its last step node
// (-1 for none).
type dpPartial struct {
	cost         float64
	set, n, step int
}

// stepNode is one provenance step, linked to the one before it (or -1).
type stepNode struct {
	step   Step
	parent int
}

// dpScratch is the dynamic program's working memory. A keyword set is w
// words of sets, bit b standing for words[b]: the empty set at offset 0,
// T at w, then the sets a run makes. A run reuses every buffer, which
// grows with the partials actually produced.
type dpScratch struct {
	words  []string // the keyword universe, sorted
	cols   []int    // cols[b] is words[b]'s scan-keyword column
	w      int
	sets   []uint64
	steps  []stepNode
	cells  []dpPartial // cell i is cells[cellAt[i]:cellAt[i+1]]
	cellAt []int
	next   []dpPartial
}

// TopRQs runs the top-m dynamic program: up to m distinct refined queries
// over the available keyword set, cheapest first. Results are guaranteed
// non-empty keyword sets (a refinement that deletes everything matches
// nothing and is not a query). The cheapest result is exactly optimal.
func TopRQs(q []string, avail map[string]bool, rs *rules.Set, m int) []RQ {
	// Beam width: double the requested width so near-misses at inner
	// cells can still surface distinct final candidates. The beam-width
	// ablation (xbench ablation-beam) measures what this choice costs in
	// candidate recall.
	return TopRQsBeam(q, avail, rs, m, 2*m)
}

// TopRQsBeam is TopRQs with an explicit per-cell beam width, exposed for
// the beam ablation. beam < m is clamped to m. It runs on a fresh scratch
// whose universe, and columns, are the available keywords.
func TopRQsBeam(q []string, avail map[string]bool, rs *rules.Set, m, beam int) []RQ {
	var x dpScratch
	for kw, ok := range avail {
		if ok {
			x.words = append(x.words, kw)
		}
	}
	slices.Sort(x.words)
	x.w = max(1, (len(x.words)+63)/64)
	x.sets = make([]uint64, 2*x.w)
	for b := range x.words {
		x.cols = append(x.cols, b)
		x.admit(b)
	}
	var out []RQ
	for _, c := range x.emit(x.run(q, rs, max(beam, m, 1)), max(m, 1)) {
		out = append(out, c.rq)
	}
	return out
}

// admit adds keyword b of the universe to T.
func (x *dpScratch) admit(b int) { x.sets[x.w+b/64] |= 1 << (b % 64) }

// setOf stores the set of kws and returns its offset, or -1 unless every
// keyword is in T.
func (x *dpScratch) setOf(kws ...string) int {
	off := len(x.sets)
	x.sets = append(x.sets, x.sets[:x.w]...) // a copy of the empty set
	for _, kw := range kws {
		b, ok := slices.BinarySearch(x.words, kw)
		if !ok || x.sets[x.w+b/64]&(1<<(b%64)) == 0 {
			x.sets = x.sets[:off]
			return -1
		}
		x.sets[off+b/64] |= 1 << (b % 64)
	}
	return off
}

// run fills the cells of q under rs for the current T, at beam width
// beam, and returns the last one.
func (x *dpScratch) run(q []string, rs *rules.Set, beam int) []dpPartial {
	x.sets, x.steps = x.sets[:2*x.w], x.steps[:0]
	x.cells, x.cellAt = append(x.cells[:0], dpPartial{step: -1}), append(x.cellAt[:0], 0, 1)
	for i, ki := range q {
		x.next = x.next[:0]
		// Option 1: keep k_i when the data has it.
		if set := x.setOf(ki); set >= 0 {
			for _, p := range x.cell(i) {
				x.extend(p, 0, set, Step{})
			}
		}
		// Option 2: delete k_i. Always available; this is what makes a
		// refinement exist for every query.
		for _, p := range x.cell(i) {
			x.extend(p, rs.DeleteCost, 0, Step{Delete: ki})
		}
		// Option 3: apply a rule whose LHS ends at k_i and matches the
		// preceding keywords, with every RHS keyword available.
		for _, j := range rs.ByLastLHS(ki) {
			r := rs.Rule(j)
			if n := len(r.LHS); n <= i+1 && slices.Equal(q[i+1-n:i+1], r.LHS) {
				if set := x.setOf(r.RHS...); set >= 0 {
					for _, p := range x.cell(i + 1 - n) {
						x.extend(p, r.Score, set, Step{Rule: r})
					}
				}
			}
		}
		x.prune(beam)
	}
	return x.cell(len(q))
}

// cell returns cell i, the partials refining the query's first i keywords.
func (x *dpScratch) cell(i int) []dpPartial { return x.cells[x.cellAt[i]:x.cellAt[i+1]] }

// extend appends to next the partial p plus the set at add, at extra
// cost, with step (unless zero) linked onto its provenance. When add does
// not grow p's set, the new partial shares it.
func (x *dpScratch) extend(p dpPartial, cost float64, add int, step Step) {
	out := dpPartial{cost: p.cost + cost, set: len(x.sets), step: p.step}
	if step != (Step{}) {
		x.steps = append(x.steps, stepNode{step: step, parent: p.step})
		out.step = len(x.steps) - 1
	}
	for j := range x.w {
		v := x.sets[p.set+j] | x.sets[add+j]
		x.sets = append(x.sets, v)
		out.n += bits.OnesCount64(v)
	}
	if out.n == p.n {
		x.sets, out.set = x.sets[:out.set], p.set
	}
	x.next = append(x.next, out)
}

// prune turns next into the next cell. It keeps one partial per keyword
// set, the cheapest, and on a cost tie the first generated: the keep
// option's, then the delete option's, then the rules' in ByLastLHS order,
// each over the previous cell in its order. That partial's steps are the
// ones the refined query reports. The survivors are ordered by cost, then
// more keywords first (less information loss), then key, and the first
// beam stay.
func (x *dpScratch) prune(beam int) {
	slices.SortStableFunc(x.next, func(a, b dpPartial) int {
		return cmp.Or(x.cmpSet(a.set, b.set), cmp.Compare(a.cost, b.cost))
	})
	uniq := x.next[:0]
	for _, p := range x.next {
		if len(uniq) == 0 || x.cmpSet(uniq[len(uniq)-1].set, p.set) != 0 {
			uniq = append(uniq, p)
		}
	}
	slices.SortFunc(uniq, func(a, b dpPartial) int {
		return cmp.Or(cmp.Compare(a.cost, b.cost), b.n-a.n, x.cmpSet(a.set, b.set))
	})
	x.cells = append(x.cells, uniq[:min(beam, len(uniq))]...)
	x.cellAt = append(x.cellAt, len(x.cells))
}

// cmpSet orders the sets at offsets a and b: the set holding the smallest
// keyword of their difference comes first, so sets of one size compare as
// their keys do. It is 0 only for equal sets.
func (x *dpScratch) cmpSet(a, b int) int {
	for j := range x.w {
		if d := x.sets[a+j] ^ x.sets[b+j]; d != 0 {
			if x.sets[a+j]&(d&-d) != 0 {
				return -1
			}
			return 1
		}
	}
	return 0
}

// emit returns the first m non-empty keyword sets of the last cell as
// candidates, in order. Candidates, keywords, columns and steps are each
// cut from one slab, as capped slices so that an append copies, and the
// keys are slices of one string. They are shared read-only.
func (x *dpScratch) emit(last []dpPartial, m int) []dpCand {
	nc, nk, ns, nb := 0, 0, 0, 0
	for _, p := range last {
		if p.n > 0 && nc < m {
			nc, nk = nc+1, nk+p.n
			for s := p.step; s >= 0; s = x.steps[s].parent {
				ns++
			}
			for j := range x.w {
				for v := x.sets[p.set+j]; v != 0; v &= v - 1 {
					nb += len(x.words[64*j+bits.TrailingZeros64(v)]) + 1
				}
			}
		}
	}
	if nc == 0 {
		return nil
	}
	cands, kws, cols, steps := make([]dpCand, 0, nc), make([]string, 0, nk), make([]int, 0, nk), make([]Step, ns)
	var key strings.Builder
	key.Grow(nb)
	for _, p := range last {
		if p.n == 0 || len(cands) == nc {
			continue
		}
		k0, b0 := len(kws), key.Len()
		for j := range x.w {
			for v := x.sets[p.set+j]; v != 0; v &= v - 1 {
				b := 64*j + bits.TrailingZeros64(v)
				if len(kws) > k0 {
					key.WriteByte(0)
				}
				key.WriteString(x.words[b])
				kws, cols = append(kws, x.words[b]), append(cols, x.cols[b])
			}
		}
		// The builder never reallocates, so earlier keys stay valid.
		c := dpCand{rq: RQ{Keywords: kws[k0:len(kws):len(kws)], DSim: p.cost}, key: key.String()[b0:], cols: cols[k0:len(cols):len(cols)]}
		// Steps are linked newest first, and fill the slab from its end.
		end := ns
		for s := p.step; s >= 0; s = x.steps[s].parent {
			ns--
			steps[ns] = x.steps[s].step
		}
		if ns < end {
			c.rq.Steps = steps[ns:end:end]
		}
		cands = append(cands, c)
	}
	return cands
}
