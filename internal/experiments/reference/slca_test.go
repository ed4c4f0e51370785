package reference

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
	"xrefine/internal/slca"
	"xrefine/internal/xmltree"
)

func buildIx(t testing.TB, src string) *index.Index {
	t.Helper()
	doc, err := xmltree.ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(doc)
}

// lists returns the served lists of terms.
func lists(t testing.TB, ix *index.Index, terms ...string) []*index.List {
	t.Helper()
	out := make([]*index.List, len(terms))
	for i, term := range terms {
		l, err := ix.List(term)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = l
	}
	return out
}

// postingLists returns the decoded postings of terms.
func postingLists(t testing.TB, ix *index.Index, terms ...string) [][]index.Posting {
	t.Helper()
	out, err := postings(ix, terms)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func idsToStrings(ids []dewey.ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.String()
	}
	return out
}

// algorithms are the reference SLCA algorithms by name.
var algorithms = map[string]func([][]index.Posting) []dewey.ID{
	"stack":                Stack,
	"indexed-lookup-eager": IndexedLookupEager,
	"multiway":             Multiway,
	"naive":                Naive,
}

// randomDoc builds a random tree with terms drawn from a tiny vocabulary so
// keyword co-occurrence is frequent.
func randomDoc(r *rand.Rand) string {
	vocab := []string{"t0", "t1", "t2", "t3"}
	var b strings.Builder
	var rec func(depth int)
	rec = func(depth int) {
		kids := r.Intn(4)
		if depth >= 4 {
			kids = 0
		}
		b.WriteString("<n>")
		if r.Intn(2) == 0 {
			b.WriteString(vocab[r.Intn(len(vocab))])
		}
		for i := 0; i < kids; i++ {
			rec(depth + 1)
		}
		b.WriteString("</n>")
	}
	b.WriteString("<root>")
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		rec(0)
	}
	b.WriteString("</root>")
	return b.String()
}

// treeSLCA computes SLCAs straight from the tree definition: nodes whose
// subtree contains all terms and none of whose children's subtrees do.
func treeSLCA(doc *xmltree.Document, terms []string) []string {
	var out []string
	memo := map[*xmltree.Node]map[string]bool{}
	var containsAll func(n *xmltree.Node) map[string]bool
	containsAll = func(n *xmltree.Node) map[string]bool {
		if m, ok := memo[n]; ok {
			return m
		}
		m := map[string]bool{}
		for _, w := range n.Terms() {
			m[w] = true
		}
		for _, c := range n.Children {
			for w := range containsAll(c) {
				m[w] = true
			}
		}
		memo[n] = m
		return m
	}
	hasAll := func(n *xmltree.Node) bool {
		m := containsAll(n)
		for _, t := range terms {
			if !m[t] {
				return false
			}
		}
		return true
	}
	doc.Walk(func(n *xmltree.Node) bool {
		if !hasAll(n) {
			return false // no descendant can have all either
		}
		for _, c := range n.Children {
			if hasAll(c) {
				return true
			}
		}
		out = append(out, n.ID.String())
		return false
	})
	return out
}

// TestPropertyAllAlgorithmsAgree: on random documents and queries, the
// served scan-eager and every reference algorithm agree with the tree
// definition (Lemma 3's premise: the SLCA algorithm is interchangeable).
// Each trial then cuts a random window out of every decoded list, as the
// partition walk cuts a partition's postings, and holds scan-eager over
// the windows equal to every reference algorithm over the same postings.
func TestPropertyAllAlgorithmsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		src := randomDoc(r)
		doc, err := xmltree.ParseString(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		ix := index.Build(doc)
		terms := make([]string, 1+r.Intn(3))
		for i := range terms {
			terms[i] = fmt.Sprintf("t%d", r.Intn(4))
		}
		ps := postingLists(t, ix, terms...)
		want := treeSLCA(doc, terms)
		if !nonEmpty(ps) {
			want = nil
		}
		check := func(what string, served []dewey.ID, ps [][]index.Posting, want []string) {
			t.Helper()
			if got := idsToStrings(served); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("trial %d %s: scan-eager(%v) = %v, want %v\ndoc: %s", trial, what, terms, got, want, src)
			}
			for name, algo := range algorithms {
				if got := idsToStrings(algo(ps)); strings.Join(got, " ") != strings.Join(want, " ") {
					t.Fatalf("trial %d %s: %s(%v) = %v, want %v\ndoc: %s", trial, what, name, terms, got, want, src)
				}
			}
		}
		check("full lists", slca.Compute(slca.AlgoScanEager, lists(t, ix, terms...)), ps, want)

		cut := make([][]index.Posting, len(ps))
		for i, p := range ps {
			lo := r.Intn(len(p) + 1)
			hi := lo + r.Intn(len(p)-lo+1)
			cut[i] = p[lo:hi]
		}
		check("windows", slca.ScanEager(cut), cut, idsToStrings(Naive(cut)))
	}
}

func benchmarkDoc(n int) string {
	r := rand.New(rand.NewSource(9))
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<paper><title>alpha w%d</title><year>%d</year></paper>", r.Intn(50), 2000+r.Intn(8))
	}
	b.WriteString("</root>")
	return b.String()
}

func benchLists(b *testing.B) [][]index.Posting {
	return postingLists(b, buildIx(b, benchmarkDoc(5000)), "alpha", "2003")
}

func BenchmarkIndexedLookupEager(b *testing.B) {
	ls := benchLists(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		IndexedLookupEager(ls)
	}
}

func BenchmarkStack(b *testing.B) {
	ls := benchLists(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Stack(ls)
	}
}

func BenchmarkMultiway(b *testing.B) {
	ls := benchLists(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Multiway(ls)
	}
}
