package strdist

// BKTree is a Burkhard-Keller tree over the Levenshtein metric: a classic
// index for "all words within edit distance d" queries. Rule generation
// probes it once per unknown query term instead of scanning the whole
// vocabulary; the triangle inequality prunes subtrees whose distance band
// cannot contain a match.
//
// The tree metric is plain Levenshtein deliberately: the restricted
// Damerau-Levenshtein distance (adjacent transpositions) violates the
// triangle inequality, which silently breaks BK-tree pruning. Callers that
// want transposition-friendly *scores* re-rate the returned neighbourhood
// with DamerauLevenshtein — every transposition neighbour is still found,
// because its Levenshtein distance is at most twice its Damerau distance.
//
// The structure is build-once/query-many and safe for concurrent readers
// after Build (or after the last Add).
type BKTree struct {
	root *bkNode
	size int
}

type bkNode struct {
	word string
	// children is keyed by distance to this node's word. Distances are
	// small non-negative ints; a slice indexed by distance beats a map
	// for both speed and memory at vocabulary scale.
	children []*bkNode
}

// NewBKTree builds a tree from words; duplicates are ignored.
func NewBKTree(words []string) *BKTree {
	t := &BKTree{}
	for _, w := range words {
		t.Add(w)
	}
	return t
}

// Len returns the number of stored words.
func (t *BKTree) Len() int { return t.size }

// Add inserts a word. Adding during concurrent queries is not safe.
func (t *BKTree) Add(word string) {
	if word == "" {
		return
	}
	if t.root == nil {
		t.root = &bkNode{word: word}
		t.size++
		return
	}
	n := t.root
	for {
		d := Levenshtein(word, n.word)
		if d == 0 {
			return // duplicate
		}
		for len(n.children) <= d {
			n.children = append(n.children, nil)
		}
		if n.children[d] == nil {
			n.children[d] = &bkNode{word: word}
			t.size++
			return
		}
		n = n.children[d]
	}
}

// Match is one neighbourhood hit.
type Match struct {
	Word     string
	Distance int
}

// Within returns every stored word at Levenshtein distance in [1, max] of
// word (the word itself is excluded), in no particular order. It converts
// word once, and every visited node's word goes into one rune buffer and
// is measured with one row, so the allocations of a call do not grow with
// the nodes it visits.
func (t *BKTree) Within(word string, max int) []Match {
	if t.root == nil || max < 1 {
		return nil
	}
	var out []Match
	q := []rune(word)
	buf, row := make([]rune, 0, 32), make([]int, 0, 32)
	stack := append(make([]*bkNode, 0, 64), t.root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		buf = buf[:0]
		for _, r := range n.word {
			buf = append(buf, r)
		}
		var d int
		d, row = levenshtein(q, buf, -1, row)
		if d >= 1 && d <= max {
			out = append(out, Match{Word: n.word, Distance: d})
		}
		// Triangle inequality: a child at edge distance c can hold
		// words at distance >= |d - c| from the query, so only edges
		// in [d-max, d+max] can contain matches.
		lo, hi := d-max, d+max
		if lo < 1 {
			lo = 1
		}
		if hi >= len(n.children) {
			hi = len(n.children) - 1
		}
		for c := lo; c <= hi; c++ {
			if n.children[c] != nil {
				stack = append(stack, n.children[c])
			}
		}
	}
	return out
}
