package slca

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
	"xrefine/internal/xmltree"
)

const fig1 = `
<bib>
  <author>
    <name>John Ben</name>
    <publications>
      <inproceedings>
        <title>online DBLP in XML</title>
        <year>2001</year>
      </inproceedings>
      <inproceedings>
        <title>online database systems</title>
        <year>2003</year>
      </inproceedings>
      <article>
        <title>XML data mining</title>
        <year>2003</year>
      </article>
    </publications>
  </author>
  <author>
    <name>Mary Lee</name>
    <publications>
      <inproceedings>
        <title>XML keyword search</title>
        <year>2005</year>
      </inproceedings>
    </publications>
    <hobby>swimming</hobby>
  </author>
</bib>`

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

// postings decodes every list, as Compute does, for the slice core.
func postings(ls []*index.List) [][]index.Posting {
	out := make([][]index.Posting, len(ls))
	for i, l := range ls {
		out[i] = l.Postings()
	}
	return out
}

func buildIx(t testing.TB, src string) *index.Index {
	t.Helper()
	doc, err := xmltree.ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(doc)
}

func idsToStrings(ids []dewey.ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.String()
	}
	return out
}

// runAll checks scan-eager, through every entry point, against want:
// the slice core over decoded postings, and the two entry points that
// decode lists themselves.
func runAll(t *testing.T, ls []*index.List, want []string) {
	t.Helper()
	ctxIDs, err := ScanEagerCtx(context.Background(), ls)
	if err != nil {
		t.Fatal(err)
	}
	for name, ids := range map[string][]dewey.ID{
		"ScanEager": ScanEager(postings(ls)), "Compute": Compute(AlgoScanEager, ls), "ScanEagerCtx": ctxIDs,
	} {
		if got := idsToStrings(ids); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestKnownQueries(t *testing.T) {
	ix := buildIx(t, fig1)
	// {xml, 2003}: author 0.0's subtree has both, smallest are the two
	// publication entries that each contain... inproceedings 0.0.1.1 has
	// "2003" but not xml? it has title "online database systems" — no
	// xml. article 0.0.1.2 has both xml and 2003.
	runAll(t, lists(t, ix, "xml", "2003"), []string{"0.0.1.2"})
	// {online, database}: one inproceedings title contains both terms.
	runAll(t, lists(t, ix, "online", "database"), []string{"0.0.1.1.0"})
	// {john, swimming}: different authors -> only the root covers both.
	runAll(t, lists(t, ix, "john", "swimming"), []string{"0"})
	// {xml}: single keyword -> every matching node, none is ancestor of
	// another here.
	runAll(t, lists(t, ix, "xml"), []string{"0.0.1.0.0", "0.0.1.2.0", "0.1.1.0.0"})
	// missing keyword -> empty
	runAll(t, lists(t, ix, "xml", "nosuch"), nil)
}

func TestSingleKeywordAncestorFiltering(t *testing.T) {
	// "a" matches both a node and its descendant: only the descendant is
	// an SLCA.
	ix := buildIx(t, `<r><a>deep a here</a><b>other</b></r>`)
	// "a" appears as tag of 0.0 and inside its text ("a" term from text
	// "deep a here" belongs to node 0.0 itself) — same node. Build a
	// sharper case:
	ix2 := buildIx(t, `<r><x><y>target</y></x></r>`)
	_ = ix
	// "x" tag at 0.0, "target" at 0.0.0: query {x} -> 0.0 alone.
	runAll(t, lists(t, ix2, "x"), []string{"0.0"})
	// query {x, target} -> 0.0 (contains both; no smaller node does).
	runAll(t, lists(t, ix2, "x", "target"), []string{"0.0"})
}

func TestDuplicateListsAndSharedNodes(t *testing.T) {
	ix := buildIx(t, fig1)
	// The same list twice: SLCA = single-keyword semantics.
	l, _ := ix.List("swimming")
	runAll(t, []*index.List{l, l}, []string{"0.1.2"})
}

func TestEmptyInput(t *testing.T) {
	runAll(t, nil, nil)
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

// Property: SLCA results never contain one another and each subtree really
// contains every keyword.
func TestPropertySLCAInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 100; trial++ {
		src := randomDoc(r)
		ix := buildIx(t, src)
		terms := []string{"t0", "t1"}
		ls := lists(t, ix, terms...)
		res := Compute(AlgoScanEager, ls)
		for i := range res {
			for j := range res {
				if i != j && dewey.IsAncestorOrSelf(res[i], res[j]) {
					t.Fatalf("results overlap: %s contains %s", res[i], res[j])
				}
			}
			for k, l := range ls {
				if !l.HasInSubtree(res[i]) {
					t.Fatalf("result %s misses keyword %s", res[i], terms[k])
				}
			}
		}
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
	doc, err := xmltree.ParseString(benchmarkDoc(5000), nil)
	if err != nil {
		b.Fatal(err)
	}
	ix := index.Build(doc)
	out := make([][]index.Posting, 0, 2)
	for _, term := range []string{"alpha", "2003"} {
		l, err := ix.List(term)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, l.Postings())
	}
	return out
}

func BenchmarkScanEager(b *testing.B) {
	ls := benchLists(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScanEager(ls)
	}
}
