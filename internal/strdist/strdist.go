// Package strdist provides string edit distances used to derive
// spelling-correction and merge/split refinement rules and their
// dissimilarity scores (Section III-B of the paper: "for term merging/split
// and spelling error correction, ds_r can be the variants of some
// morphological metric such as string edit distance").
package strdist

import "unicode/utf8"

// Levenshtein returns the classic edit distance between a and b: the
// minimum number of single-rune insertions, deletions and substitutions
// turning a into b.
func Levenshtein(a, b string) int {
	d, _ := levenshtein([]rune(a), []rune(b), -1, nil)
	return d
}

// LevenshteinWithin returns the Levenshtein distance between a and b if it
// is at most max, and (0, false) otherwise. The banded computation costs
// O(max·min(|a|,|b|)) which makes vocabulary scans for spelling candidates
// affordable.
func LevenshteinWithin(a, b string, max int) (int, bool) {
	if max < 0 {
		return 0, false
	}
	// Cheap length filter before allocating.
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	if la-lb > max || lb-la > max {
		return 0, false
	}
	d, _ := levenshtein([]rune(a), []rune(b), max, nil)
	if d < 0 || d > max {
		return 0, false
	}
	return d, true
}

// levenshtein computes the edit distance; when max >= 0 the computation is
// banded and returns -1 as soon as the distance provably exceeds max. It
// computes in row, grown when shorter than the shorter string plus one,
// and returns the row for the next call to reuse.
func levenshtein(a, b []rune, max int, row []int) (int, []int) {
	if len(a) < len(b) {
		a, b = b, a
	}
	// b is the shorter string; one row of length len(b)+1.
	if len(b) == 0 {
		return len(a), row
	}
	if cap(row) < len(b)+1 {
		row = make([]int, len(b)+1)
	}
	row = row[:len(b)+1]
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prev := row[0] // row[i-1][0]
		row[0] = i
		best := row[0]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur := min3(row[j]+1, row[j-1]+1, prev+cost)
			prev = row[j]
			row[j] = cur
			if cur < best {
				best = cur
			}
		}
		if max >= 0 && best > max {
			return -1, row
		}
	}
	return row[len(b)], row
}

// DamerauLevenshtein returns the restricted Damerau-Levenshtein distance
// (edits plus adjacent transpositions). Typos frequently transpose
// neighbouring letters ("machien" for "machine"), so spelling-rule scoring
// counts a transposition as one edit rather than two.
func DamerauLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	// Three rows: i-2, i-1, i.
	prev2 := make([]int, len(rb)+1)
	prev1 := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev1 {
		prev1[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev1[j]+1, cur[j-1]+1, prev1[j-1]+cost)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := prev2[j-2] + 1; t < cur[j] {
					cur[j] = t
				}
			}
		}
		prev2, prev1, cur = prev1, cur, prev2
	}
	return prev1[len(rb)]
}

// DamerauLevenshteinWithin is DamerauLevenshtein with an early-exit bound,
// mirroring LevenshteinWithin.
func DamerauLevenshteinWithin(a, b string, max int) (int, bool) {
	if max < 0 {
		return 0, false
	}
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	if la-lb > max || lb-la > max {
		return 0, false
	}
	d := DamerauLevenshtein(a, b)
	if d > max {
		return 0, false
	}
	return d, true
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
