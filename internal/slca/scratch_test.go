package slca

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xrefine/internal/index"
)

// contractCorpora yields the decoded list sets the contract tests run on:
// queries over fig1, then the random documents and queries of the
// property tests.
func contractCorpora(t *testing.T, yield func(name string, ls [][]index.Posting)) {
	t.Helper()
	ix := buildIx(t, fig1)
	for _, q := range [][]string{
		{"xml", "2003"}, {"online", "database"}, {"john", "swimming"},
		{"xml"}, {"xml", "online"}, {"xml", "online", "2003"}, {"xml", "nosuch"},
	} {
		yield("fig1/"+strings.Join(q, "+"), postings(lists(t, ix, q...)))
	}
	for _, seed := range []int64{77, 123} {
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 100; trial++ {
			ix := buildIx(t, randomDoc(r))
			terms := make([]string, 1+r.Intn(3))
			for i := range terms {
				terms[i] = fmt.Sprintf("t%d", r.Intn(4))
			}
			yield(fmt.Sprintf("seed%d/%d/%s", seed, trial, strings.Join(terms, "+")), postings(lists(t, ix, terms...)))
		}
	}
}

// postingsString renders every posting ID of ls.
func postingsString(ls [][]index.Posting) string {
	var b strings.Builder
	for _, l := range ls {
		for _, p := range l {
			b.WriteString(p.ID.String())
			b.WriteByte(' ')
		}
		b.WriteByte('|')
	}
	return b.String()
}

// TestResultIDsCapped: every returned ID has cap == len, so a caller
// appending to a result reallocates instead of writing into the posting
// (or neighbouring posting) the result is a prefix of. After appending to
// every result, the lists and a second computation are unchanged.
func TestResultIDsCapped(t *testing.T) {
	contractCorpora(t, func(name string, ls [][]index.Posting) {
		postings := postingsString(ls)
		ids := ScanEager(ls)
		want := idsString(ids)
		for i, id := range ids {
			if cap(id) != len(id) {
				t.Fatalf("%s: result %s has len %d, cap %d", name, id, len(id), cap(id))
			}
			ids[i] = append(id, 1<<31)
		}
		if got := idsString(ScanEager(ls)); got != want {
			t.Fatalf("%s: second computation %q, first %q", name, got, want)
		}
		if got := postingsString(ls); got != postings {
			t.Fatalf("%s: appending to results changed the lists:\n%s\nwant\n%s", name, got, postings)
		}
	})
}

// TestScratchReuse: one Scratch reused over a sequence of different list
// sets — more and fewer lists, longer and shorter, sub-windows, sets with
// an empty list — answers every call as a fresh ScanEager does, so no
// cursor, ordering or candidate state leaks from one call to the next.
func TestScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var s Scratch
	calls := 0
	contractCorpora(t, func(name string, ls [][]index.Posting) {
		sets := [][][]index.Posting{ls}
		// A window of every list and the lists reversed: same
		// keywords, other lengths and order.
		win := make([][]index.Posting, len(ls))
		rev := make([][]index.Posting, len(ls))
		for i, l := range ls {
			lo := 0
			if len(l) > 0 {
				lo = r.Intn(len(l))
			}
			win[i] = l[lo:]
			rev[len(ls)-1-i] = l
		}
		sets = append(sets, win, rev)
		for _, set := range sets {
			want := idsString(ScanEager(set))
			if got := idsString(s.ScanEager(set)); got != want {
				t.Fatalf("%s call %d: reused scratch %q, fresh %q", name, calls, got, want)
			}
			calls++
		}
	})
}
