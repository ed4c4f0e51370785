package strdist_test

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xrefine/internal/experiments"
	"xrefine/internal/strdist"
)

// scan is Within's reference: every word of vocab, measured with
// Levenshtein and DamerauLevenshtein.
func scan(vocab []string, q string, max int) []strdist.Match {
	var out []strdist.Match
	for _, w := range vocab {
		if d := strdist.Levenshtein(q, w); d >= 1 && d <= max {
			out = append(out, strdist.Match{Word: w, Distance: d, Damerau: strdist.DamerauLevenshtein(q, w)})
		}
	}
	return out
}

func checkWithin(t *testing.T, vocab []string, q string, max int) {
	t.Helper()
	got := strdist.Within(nil, vocab, q, max)
	if want := scan(vocab, q, max); !reflect.DeepEqual(got, want) {
		t.Fatalf("Within(%q, %d) over %d words = %v, want %v", q, max, len(vocab), got, want)
	}
}

// sortedSet returns words sorted, without duplicates, as
// index.Vocabulary returns a vocabulary.
func sortedSet(words []string) []string {
	slices.Sort(words)
	return slices.Compact(words)
}

type withinCase struct {
	vocab []string
	q     string
	max   int
	want  []string
}

// checkWords checks the words Within returns, in order, and that its
// matches equal scan's.
func checkWords(t *testing.T, cases []withinCase) {
	t.Helper()
	for _, c := range cases {
		got := strdist.Within(nil, c.vocab, c.q, c.max)
		var words []string
		for _, m := range got {
			words = append(words, m.Word)
		}
		if !slices.Equal(words, c.want) {
			t.Errorf("Within(%q, %d) over %q = %v, want %v", c.q, c.max, c.vocab, words, c.want)
		}
		checkWithin(t, c.vocab, c.q, c.max)
	}
}

func TestWithinBasics(t *testing.T) {
	basic := []string{"database", "databases", "databse", "keyword", "keywords", "search"}
	checkWords(t, []withinCase{
		{basic, "databse", 1, []string{"database"}},
		{basic, "database", 2, []string{"databases", "databse"}}, // the query itself is excluded
		{[]string{"machine"}, "machien", 2, []string{"machine"}},
		{[]string{"инфа", "инфо", "инфор"}, "инфо", 1, []string{"инфа", "инфор"}},
	})
	if m := strdist.Within(nil, []string{"machine"}, "machien", 2); m[0].Distance != 2 || m[0].Damerau != 1 {
		t.Errorf("machien -> machine scored %+v, want Levenshtein 2, Damerau 1", m[0])
	}
}

func TestWithinEmptyAndDegenerate(t *testing.T) {
	basic := []string{"database", "databases", "databse", "keyword", "keywords", "search"}
	checkWords(t, []withinCase{
		{basic, "databse", 0, nil},
		{nil, "x", 2, nil},
		{[]string{"solo"}, "sole", 1, []string{"solo"}},
		{[]string{"", "a", "ab"}, "", 1, []string{"a"}},
		{[]string{"", "a", "ab"}, "b", 2, []string{"", "a", "ab"}},
	})
	// Invalid UTF-8: "\xe6\x97" decodes to two error runes, while a word
	// that continues its bytes into a valid rune (日) decodes to one, so the
	// rows of the shared byte prefix must not be shared.
	checkWithin(t, []string{"\xe6\x97", "\xe6\x97x", "\xe6\x97\xa5", "\xe6\x97\xa5x"}, "\xe6\x97\xa5", 2)
	checkWithin(t, []string{"\xe6\x97", "\xe6\x97x", "\xe6\x97\xa5", "\xe6\x97\xa5x"}, "zz", 2)
	// Here the error runes' row dies, and the next word, within 1 of the
	// query, starts with their bytes: it must not be skipped.
	checkWithin(t, []string{"\xe6\x97", "\xe6\x97\xa5x"}, "日", 1)
}

// TestPropertyWithinAgainstScan: on random vocabularies of multi-byte
// words, some far longer than the query and some holding it, Within
// returns exactly scan's matches, in vocabulary order.
func TestPropertyWithinAgainstScan(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	letters := []rune("abcdé日")
	word := func() string {
		n := 1 + r.Intn(7)
		if r.Intn(10) == 0 {
			n += 33
		}
		w := make([]rune, n)
		for i := range w {
			w[i] = letters[r.Intn(len(letters))]
		}
		return string(w)
	}
	for trial := 0; trial < 40; trial++ {
		var words []string
		for i := 0; i < 120; i++ {
			words = append(words, word())
		}
		vocab := sortedSet(words)
		for probe := 0; probe < 20; probe++ {
			q := word()
			if probe%5 == 0 {
				q = vocab[r.Intn(len(vocab))]
			}
			checkWithin(t, vocab, q, 1+r.Intn(3))
		}
	}
}

// FuzzSpelling: over a vocabulary built from the input — its words, their
// prefixes, each with a multi-byte rune appended, and the query itself —
// Within returns exactly scan's matches for a bound from 1 to 3.
func FuzzSpelling(f *testing.F) {
	f.Add("database databases databse keyword", "databse", uint8(1))
	f.Add("инфа инфо日 ça", "инфо", uint8(0))
	f.Add("\xe6\x97 \xe6\x97\xa5x ab", "\xe6\x97\xa5", uint8(2))
	f.Add("\xe6\x97 \xe6\x97\xa5x", "日", uint8(0))
	f.Add("", "", uint8(1))
	f.Fuzz(func(t *testing.T, words, q string, bound uint8) {
		if len(words) > 256 || len(q) > 32 {
			return
		}
		vocab := []string{q}
		for _, w := range strings.Fields(words) {
			vocab = append(vocab, w, w+"é")
			for i := range w {
				vocab = append(vocab, w[:i])
			}
		}
		checkWithin(t, sortedSet(vocab), q, 1+int(bound%3))
	})
}

// goldenVocab is the vocabulary of the corpus the golden answers are
// pinned on: the DBLP-like corpus at a fifth of full scale, 287 words.
func goldenVocab(t testing.TB) []string {
	t.Helper()
	c, err := experiments.DBLPCorpus(0.2)
	if err != nil {
		t.Fatal(err)
	}
	return c.Index.Vocabulary()
}

// syntheticVocab returns n distinct sorted words of two to five syllables,
// so that many words share prefixes; a few syllables are multi-byte.
func syntheticVocab(seed int64, n int) []string {
	syl := strings.Fields("a ab ac al an ar ba be bi ca co da de di el en er es fa ga in is ka la le li ma me mo na ne no ra re ri sa se ta te ti to ul un ve é ün 日 ça")
	r := rand.New(rand.NewSource(seed))
	set := make(map[string]bool, n)
	for len(set) < n {
		var b strings.Builder
		for k := 2 + r.Intn(4); k > 0; k-- {
			b.WriteString(syl[r.Intn(len(syl))])
		}
		set[b.String()] = true
	}
	words := make([]string, 0, n)
	for w := range set {
		words = append(words, w)
	}
	return sortedSet(words)
}

// typo returns w after one to three random edits: substitutions,
// insertions, deletions and adjacent transpositions.
func typo(r *rand.Rand, w string) string {
	letters := []rune("abcdeilmnorstué日")
	rs := []rune(w)
	for k := 1 + r.Intn(3); k > 0; k-- {
		i := r.Intn(len(rs) + 1)
		switch c := letters[r.Intn(len(letters))]; r.Intn(4) {
		case 0:
			if i < len(rs) {
				rs[i] = c
			}
		case 1:
			rs = slices.Insert(rs, i, c)
		case 2:
			if i < len(rs) {
				rs = slices.Delete(rs, i, i+1)
			}
		default:
			if i+1 < len(rs) {
				rs[i], rs[i+1] = rs[i+1], rs[i]
			}
		}
	}
	return string(rs)
}

// typos returns n typo'd words of vocab.
func typos(seed int64, vocab []string, n int) []string {
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = typo(r, vocab[r.Intn(len(vocab))])
	}
	return out
}

// TestWithinSyntheticAgainstScan runs typo'd words against a synthetic
// vocabulary whose words share long prefixes, where the walk skips most.
func TestWithinSyntheticAgainstScan(t *testing.T) {
	vocab := syntheticVocab(5, 2000)
	for _, q := range typos(6, vocab, 200) {
		checkWithin(t, vocab, q, 2)
	}
}

// TestWithinAllocsFlat: a lookup's allocations do not grow with the
// vocabulary — the walk keeps its rows in memory sized by the query and
// reused across lookups, and the caller's buffer holds the matches.
func TestWithinAllocsFlat(t *testing.T) {
	const q = "datbase"
	buf := make([]strdist.Match, 0, 64)
	var allocs []float64
	for _, vocab := range [][]string{goldenVocab(t), syntheticVocab(1, 20000)} {
		w := new(strdist.Walk)
		allocs = append(allocs, testing.AllocsPerRun(50, func() { strdist.RunWalk(w, buf[:0], vocab, q, 2) }))
	}
	t.Logf("allocations per lookup: %v at 287 and 20 000 words", allocs)
	if allocs[1] != allocs[0] {
		t.Errorf("a lookup allocates %.0f times at 20 000 words, %.0f at 287", allocs[1], allocs[0])
	}
}

// BenchmarkSpelling times one lookup at the rule generator's bound, over
// typo'd words of the golden vocabulary and of synthetic 2 000- and
// 20 000-word ones.
func BenchmarkSpelling(b *testing.B) {
	for _, c := range []struct {
		name  string
		vocab []string
	}{
		{"golden", goldenVocab(b)},
		{"synthetic2000", syntheticVocab(1, 2000)},
		{"synthetic20000", syntheticVocab(1, 20000)},
	} {
		b.Run(c.name, func(b *testing.B) {
			qs := typos(2, c.vocab, 1024)
			buf := make([]strdist.Match, 0, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = strdist.Within(buf[:0], c.vocab, qs[i%len(qs)], 2)
			}
		})
	}
}
