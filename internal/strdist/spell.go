package strdist

import (
	"strings"
	"sync"
	"unicode/utf8"
)

// Match is one word Within finds: its Levenshtein distance to the query
// and its restricted Damerau-Levenshtein distance, which is never larger.
type Match struct {
	Word     string
	Distance int
	Damerau  int
}

// Within appends to dst every word of vocab at Levenshtein distance 1 to
// max of word, in vocab's order, and returns the extended slice. vocab must
// be sorted (byte order, as sort.Strings leaves it).
//
// The sorted list is walked as an implicit trie, the classic trie DP. Row d
// of the edit-distance table belongs to the current word's first d runes,
// so consecutive words share the rows of their common prefix and a word
// costs only the rows of its remaining runes. Each row keeps the 2·max+1
// cells around the diagonal; a cell farther off is always over max. Once a
// row has no cell within max, neither has any word with that prefix: the
// walk checks whether the next word shares it and, if so, binary-searches
// past every word that does. A word too short to be within max is passed
// over unread. Each hit is re-scored with the restricted Damerau distance.
// The rows live in a pooled walk, so a call allocates nothing beyond dst's
// growth, however large vocab is.
func Within(dst []Match, vocab []string, word string, max int) []Match {
	if max < 1 {
		return dst
	}
	w := walks.Get().(*walk)
	dst = w.run(dst, vocab, word, max)
	walks.Put(w)
	return dst
}

var walks = sync.Pool{New: func() any { return new(walk) }}

// walk is the reusable state of one Within call.
type walk struct {
	q     []rune
	max   int
	rows  []int  // row d at rows[d*width:], cell x holding column x+d-max-1
	runes []rune // runes[d]: rune d of the current word
	off   []int  // off[d]: byte offset of rune d of the current word
	osa   []int  // Damerau rows
}

func (w *walk) run(dst []Match, vocab []string, word string, max int) []Match {
	w.max = max
	w.q = w.q[:0]
	for _, r := range word {
		w.q = append(w.q, r)
	}
	n := len(w.q)
	width := 2*max + 3
	// A prefix longer than n+max runes is over max from every prefix of
	// the query, so its row is the deepest the walk computes.
	depths := n + max + 2
	w.rows = grow(w.rows, depths*width)
	w.runes = grow(w.runes, depths)
	w.off = grow(w.off, depths)
	w.off[0] = 0
	for x := range w.rows[:width] {
		w.rows[x] = max + 1
		if j := x - max - 1; j >= 0 && j <= n {
			w.rows[x] = j
		}
	}
	// The rows 0..depth hold the prefixes of prev; its first clean runes
	// decoded without error, so another word holding their bytes holds the
	// same runes.
	prev, depth, clean := "", 0, 0
	for i := 0; i < len(vocab); {
		v := vocab[i]
		b := 0
		for b < len(prev) && b < len(v) && prev[b] == v[b] {
			b++
		}
		d := min(depth, clean)
		for w.off[d] > b {
			d--
		}
		prev, clean = v, d
		i++
		// A word of fewer than n-max bytes, so fewer runes, is over max.
		if len(v) < n-max {
			depth = d
			continue
		}
		dead := false
		for pos := w.off[d]; pos < len(v); {
			r, size := rune(v[pos]), 1
			if r >= utf8.RuneSelf {
				r, size = utf8.DecodeRuneInString(v[pos:])
			}
			if r != utf8.RuneError && clean == d {
				clean++
			}
			w.runes[d] = r
			d++
			pos += size
			w.off[d] = pos
			if !w.row(d, r) {
				dead = true
				break
			}
		}
		depth = d
		if dead {
			// Skip every word with this row's prefix, which decodes to the
			// same runes in each of them.
			if pre := v[:w.off[d]]; d <= clean && i < len(vocab) && strings.HasPrefix(vocab[i], pre) {
				i = pastPrefix(vocab, i+1, pre)
			}
			continue
		}
		if x := n - d + max + 1; x >= 0 && x < width {
			if dist := w.rows[d*width+x]; dist >= 1 && dist <= max {
				var dam int
				dam, w.osa = osa(w.q, w.runes[:d], w.osa)
				dst = append(dst, Match{Word: v, Distance: dist, Damerau: dam})
			}
		}
	}
	return dst
}

// row computes row d, for a prefix ending in rune r, from row d-1, and
// reports whether any of its cells is within max. It writes the cells of
// columns 0 to n and the band's two edges: every cell the next row or the
// final distance reads. Cells are not capped: one over max may read any
// value over max, and the band's edges keep each cell's value at least
// min(its distance, max+1).
func (w *walk) row(d int, r rune) bool {
	max, width := w.max, 2*w.max+3
	p := w.rows[(d-1)*width : d*width]
	c := w.rows[d*width : (d+1)*width]
	c[0], c[width-1] = max+1, max+1
	// Cell x holds column j = x+d-max-1: column 0 at x0, column n at xn.
	x0, xn := max+1-d, len(w.q)-d+max+1
	best, first := max+1, 1
	if x0 >= 1 {
		c[x0] = d
		best, first = d, x0+1
	}
	left := c[first-1]
	for x, j := first, first+d-max-1; x <= min(xn, width-2); x, j = x+1, j+1 {
		// c(d, j) from c(d-1, j-1), c(d-1, j) and c(d, j-1).
		v := p[x]
		if w.q[j-1] != r {
			v++
		}
		v = min(v, p[x+1]+1, left+1)
		c[x], left = v, v
		best = min(best, v)
	}
	return best <= max
}

// pastPrefix returns the index of the first word from i on that does not
// start with pre; the words that do are contiguous from i.
func pastPrefix(vocab []string, i int, pre string) int {
	lo, hi := i, len(vocab)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if strings.HasPrefix(vocab[m], pre) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
