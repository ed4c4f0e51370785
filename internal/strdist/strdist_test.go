package strdist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLevenshteinKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"database", "databse", 1},
		{"mecine", "machine", 2}, // the paper's rule 5: ds = 2
		{"xml", "xml", 0},
		{"flaw", "lawn", 2},
		{"инфо", "инфа", 1}, // multi-byte runes count as one
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Levenshtein(c.b, c.a); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestDamerau(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"machien", "machine", 1}, // transposition counts once
		{"ca", "ac", 1},
		{"abc", "acb", 1},
		{"", "ab", 2},
		{"ab", "", 2},
		{"kitten", "sitting", 3},
		{"abcdef", "abcdef", 0},
	}
	for _, c := range cases {
		if got := DamerauLevenshtein(c.a, c.b); got != c.want {
			t.Errorf("Damerau(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// naive reference implementation for the property tests.
func naiveLevenshtein(a, b []rune) int {
	dp := make([][]int, len(a)+1)
	for i := range dp {
		dp[i] = make([]int, len(b)+1)
		dp[i][0] = i
	}
	for j := 0; j <= len(b); j++ {
		dp[0][j] = j
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			dp[i][j] = min(dp[i-1][j]+1, dp[i][j-1]+1, dp[i-1][j-1]+cost)
		}
	}
	return dp[len(a)][len(b)]
}

func randWord(r *rand.Rand, n int) string {
	letters := []rune("abcde")
	w := make([]rune, r.Intn(n))
	for i := range w {
		w[i] = letters[r.Intn(len(letters))]
	}
	return string(w)
}

func TestPropertyMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1500; i++ {
		a, b := randWord(r, 12), randWord(r, 12)
		want := naiveLevenshtein([]rune(a), []rune(b))
		if got := Levenshtein(a, b); got != want {
			t.Fatalf("Levenshtein(%q,%q) = %d, want %d", a, b, got, want)
		}
	}
}

// Property: triangle inequality and identity-of-indiscernibles for both
// metrics.
func TestPropertyMetricAxioms(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 800; i++ {
		a, b, c := randWord(r, 10), randWord(r, 10), randWord(r, 10)
		for name, f := range map[string]func(string, string) int{
			"lev": Levenshtein, "dam": DamerauLevenshtein,
		} {
			if f(a, a) != 0 {
				t.Fatalf("%s(%q,%q) != 0", name, a, a)
			}
			if f(a, b) != f(b, a) {
				t.Fatalf("%s symmetry failed for %q,%q", name, a, b)
			}
			if f(a, c) > f(a, b)+f(b, c) {
				t.Fatalf("%s triangle failed for %q,%q,%q", name, a, b, c)
			}
			if a != b && f(a, b) == 0 {
				t.Fatalf("%s(%q,%q) = 0 for distinct strings", name, a, b)
			}
		}
	}
}

// Property: Damerau <= Levenshtein always (transpositions only help).
func TestPropertyDamerauNotWorse(t *testing.T) {
	f := func(a, b string) bool {
		return DamerauLevenshtein(a, b) <= Levenshtein(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
