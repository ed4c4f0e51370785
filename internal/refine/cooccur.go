package refine

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
	"xrefine/internal/searchfor"
	"xrefine/internal/xmltree"
)

// CoCounts is Formula 7's co-occurrence table as one walk counted it: for
// every search-for type T in L and every pair of scan keywords, the number
// of T-typed subtree roots holding both, f^T_{a,b}. Infer never puts the
// root type in L, so every T-root lies inside one partition: a full walk's
// counts equal Index.CoDF's, and a degraded walk's count the partitions
// it walked. Ranking reads them instead of the lists.
//
// A scan stops counting once Q itself holds results in it: Q is then in
// the walk's answer, so the engine answers Q and ranks nothing.
type CoCounts struct {
	ks       []string
	l        []searchfor.Candidate
	per      int      // pairs per type of L
	pairs    []uint32 // per type of L, the upper triangle over ks, by rows
	answered bool     // the walk found Q's results and stopped counting
}

// CoDF returns f^T_{a,b}. It fails for a pair outside the scan keywords,
// for a type outside L, and after the walk stopped counting.
func (c *CoCounts) CoDF(a, b string, t *xmltree.Type) (int, error) {
	i, j, ti := slices.Index(c.ks, a), slices.Index(c.ks, b), slices.IndexFunc(c.l, func(c searchfor.Candidate) bool { return c.Type == t })
	if i < 0 || j < 0 || i == j || ti < 0 || c.answered {
		return 0, fmt.Errorf("refine: the walk did not count %q and %q under %v", a, b, t)
	}
	return int(c.pairs[ti*c.per+pairAt(len(c.ks), min(i, j), max(i, j))]), nil
}

// add adds the counts of o, another scan of the same walk.
func (c *CoCounts) add(o *CoCounts) {
	for i, v := range o.pairs {
		c.pairs[i] += v
	}
	c.answered = c.answered || o.answered
}

// pairAt is the offset of pair (i, j), i < j, in an upper triangle over n
// keywords; it is linear in j.
func pairAt(n, i, j int) int { return i*(2*n-i-1)/2 + j - i - 1 }

// coCounter counts one scan's co-occurrences as its partitions pass. Its
// counts and its scratch are cut from one slab.
type coCounter struct {
	CoCounts
	buf     []uint32 // the slab, kept across walks
	nreg    int      // registry types when the scan began
	verdict []uint32 // per (type of L, registry type): 0 unknown, 1 under it, 2 not
	pos     []uint32 // per column, the root merge's position
	cols    []uint32 // the columns the partition holds
	act     []uint32 // the columns the root merge has not exhausted
	grp     []uint32 // the columns one root holds
}

// init sizes the counter for the scan keywords ks and in's L; with fewer
// than two keywords or no type in L there is nothing to count.
func (c *coCounter) init(in Input, ks []string) {
	c.ks, c.l, c.pairs, c.answered = ks, in.Judge.Candidates(), nil, false
	n := len(ks)
	c.per = n * (n - 1) / 2
	if c.per == 0 || len(c.l) == 0 {
		return
	}
	c.nreg = in.Index.Types.Len()
	nv := len(c.l) * c.nreg
	c.buf = resize(c.buf, len(c.l)*c.per+nv+4*n)
	slab := c.buf
	c.pairs, slab = slab[:len(c.l)*c.per], slab[len(c.l)*c.per:]
	c.verdict, slab = slab[:nv], slab[nv:]
	c.pos, c.cols, c.act, c.grp = slab[:n], slab[n:n:2*n], slab[2*n:2*n:3*n], slab[3*n:3*n:4*n]
}

// copyFrom makes the counter's counts a copy of o, in its own slab: a
// merge's counts outlive the scans it adds up.
func (c *coCounter) copyFrom(o *CoCounts) {
	c.buf = append(c.buf[:0], o.pairs...)
	c.CoCounts = *o
	c.pairs = c.buf
}

// reset drops the counter's references into the last walk's query.
func (c *coCounter) reset() { c.CoCounts = CoCounts{} }

// under reports whether a node of type ty lies in a subtree of L's type
// ti, the verdict cached per type ID.
func (c *coCounter) under(ti int, ty *xmltree.Type) bool {
	if ty.ID >= c.nreg {
		return ty.HasPrefix(c.l[ti].Type)
	}
	v := &c.verdict[ti*c.nreg+ty.ID]
	if *v == 0 {
		*v = 2
		if ty.HasPrefix(c.l[ti].Type) {
			*v = 1
		}
	}
	return *v == 1
}

// count adds the walker's current partition. When depth(T) = 1 the
// partition root is the only candidate T-root. Deeper, the partition
// often holds one T-root (oneRoot); otherwise a merge across the
// partition's columns groups their postings by T-root. Labels are compared
// below the partition prefix, which all of them share.
func (c *coCounter) count(w *partitionWalker) {
	if len(c.pairs) == 0 || c.answered {
		return
	}
	cols := c.cols[:0]
	for i, b := range w.mask {
		for ; b != 0; b &= b - 1 {
			cols = append(cols, uint32(8*i+bits.TrailingZeros8(b)))
		}
	}
	if len(cols) < 2 {
		return
	}
	for ti, cand := range c.l {
		d := cand.Type.Depth
		if d == 1 {
			if c.under(ti, w.cols[cols[0]][0].Type) {
				c.addPairs(ti, cols)
			}
			continue
		}
		if c.oneRoot(ti, d, w.cols, cols) {
			continue
		}
		act := c.act[:0]
		for _, col := range cols {
			if p := c.nextUnder(ti, w.cols[col], 0); p < len(w.cols[col]) {
				c.pos[col] = uint32(p)
				act = append(act, col)
			}
		}
		for len(act) >= 2 {
			var root dewey.ID
			for k, col := range act {
				if id := w.cols[col][c.pos[col]].ID[2 : d+1]; k == 0 || dewey.Compare(id, root) < 0 {
					root = id
				}
			}
			grp, keep := c.grp[:0], act[:0]
			for _, col := range act {
				ps, p := w.cols[col], int(c.pos[col])
				if dewey.Equal(ps[p].ID[2:d+1], root) {
					grp = append(grp, col)
					p = c.nextUnder(ti, ps, pastRoot(ps, p, d))
				}
				if p < len(ps) {
					c.pos[col] = uint32(p)
					keep = append(keep, col)
				}
			}
			act = keep
			if len(grp) >= 2 {
				c.addPairs(ti, grp)
			}
		}
	}
}

// oneRoot counts the partition for L's type ti, of depth d, when every
// column's postings under it share one T-root, reporting whether they
// did; otherwise it counts nothing.
func (c *coCounter) oneRoot(ti, d int, parts [][]index.Posting, cols []uint32) bool {
	var root dewey.ID
	grp := c.grp[:0]
	for _, col := range cols {
		ps := parts[col]
		p := c.nextUnder(ti, ps, 0)
		if p == len(ps) {
			continue
		}
		last := ps[len(ps)-1]
		if root == nil {
			root = ps[p].ID[2 : d+1]
		}
		if !dewey.Equal(ps[p].ID[2:d+1], root) || !c.under(ti, last.Type) || !dewey.Equal(last.ID[2:d+1], root) {
			return false
		}
		grp = append(grp, col)
	}
	if len(grp) >= 2 {
		c.addPairs(ti, grp)
	}
	return true
}

// nextUnder returns the position of the first posting from p that lies
// under L's type ti.
func (c *coCounter) nextUnder(ti int, ps []index.Posting, p int) int {
	for p < len(ps) && !c.under(ti, ps[p].Type) {
		p++
	}
	return p
}

// pastRoot returns the position past the postings in the subtree of ps[p]'s
// ancestor at depth d. A subtree is contiguous in document order, so the
// position is found by binary search.
func pastRoot(ps []index.Posting, p, d int) int {
	root := ps[p].ID[:d+1]
	return p + sort.Search(len(ps)-p, func(i int) bool {
		id := ps[p+i].ID
		return dewey.Compare(id[:min(len(id), d+1)], root) > 0
	})
}

// addPairs counts one T-root holding the keyword columns cols, ascending.
func (c *coCounter) addPairs(ti int, cols []uint32) {
	row := c.pairs[ti*c.per : (ti+1)*c.per]
	for a, i := range cols {
		off := pairAt(len(c.ks), int(i), 0)
		for _, j := range cols[a+1:] {
			row[off+int(j)]++
		}
	}
}
