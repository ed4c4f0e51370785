// Package strdist provides string edit distances used to derive
// spelling-correction refinement rules and their dissimilarity scores
// (Section III-B of the paper: "for term merging/split and spelling error
// correction, ds_r can be the variants of some morphological metric such as
// string edit distance"). Within finds a word's spelling neighbours in a
// sorted vocabulary; Levenshtein and DamerauLevenshtein compare two strings
// directly and serve as its reference.
package strdist

// Levenshtein returns the classic edit distance between a and b: the
// minimum number of single-rune insertions, deletions and substitutions
// turning a into b.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	row := make([]int, len(rb)+1)
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		diag := row[0] // row[i-1][j-1]
		row[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			diag, row[j] = row[j], min(row[j]+1, row[j-1]+1, diag+cost)
		}
	}
	return row[len(rb)]
}

// DamerauLevenshtein returns the restricted Damerau-Levenshtein distance
// (edits plus adjacent transpositions). Typos frequently transpose
// neighbouring letters ("machien" for "machine"), so spelling-rule scoring
// counts a transposition as one edit rather than two.
func DamerauLevenshtein(a, b string) int {
	d, _ := osa([]rune(a), []rune(b), nil)
	return d
}

// osa returns the restricted Damerau-Levenshtein (optimal string alignment)
// distance of a and b. It computes in three rows of len(b)+1 cells taken
// from rows, grown if short, and returns them for the next call to reuse.
func osa(a, b []rune, rows []int) (int, []int) {
	m := len(b) + 1
	rows = grow(rows, 3*m)
	prev2, prev1, cur := rows[:m], rows[m:2*m], rows[2*m:]
	for j := range prev1 {
		prev1[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j < m; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			v := min(prev1[j]+1, cur[j-1]+1, prev1[j-1]+cost)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				v = min(v, prev2[j-2]+1)
			}
			cur[j] = v
		}
		prev2, prev1, cur = prev1, cur, prev2
	}
	return prev1[m-1], rows
}
