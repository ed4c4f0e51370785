package index

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"xrefine/internal/dewey"
	"xrefine/internal/kvstore"
	"xrefine/internal/xmltree"
)

// figure1 mirrors the paper's Figure 1 closely enough to check the worked
// statistics examples: two authors, publications with inproceedings and
// article entries, a hobby.
const figure1 = `
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

func buildFig1(t testing.TB) (*xmltree.Document, *Index) {
	t.Helper()
	doc, err := xmltree.ParseString(figure1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return doc, Build(doc)
}

func typeOf(t testing.TB, ix *Index, path string) *xmltree.Type {
	t.Helper()
	ty, ok := ix.Types.ByPath(path)
	if !ok {
		t.Fatalf("type %q missing", path)
	}
	return ty
}

func TestListContentsAndOrder(t *testing.T) {
	_, ix := buildFig1(t)
	l, err := ix.List("xml")
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 3 {
		t.Fatalf("xml list len = %d, want 3", l.Len())
	}
	ps := l.Postings()
	for i := 1; i < len(ps); i++ {
		if dewey.Compare(ps[i-1].ID, ps[i].ID) >= 0 {
			t.Fatal("list out of document order")
		}
	}
	// tag-name keywords are indexed too
	l2, err := ix.List("inproceedings")
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 3 {
		t.Fatalf("inproceedings list len = %d, want 3", l2.Len())
	}
	// absent keyword: empty non-nil list
	l3, err := ix.List("nosuchterm")
	if err != nil || l3.Len() != 0 {
		t.Fatalf("absent term: %v %d", err, l3.Len())
	}
	if ix.HasTerm("nosuchterm") {
		t.Error("HasTerm(nosuchterm) = true")
	}
	if !ix.HasTerm("swimming") {
		t.Error("HasTerm(swimming) = false")
	}
}

// The paper's Definition 3.2 example: f_xml^inproceedings = 2 on Figure 1
// (two inproceedings whose subtrees contain "XML").
func TestDFMatchesPaperExample(t *testing.T) {
	_, ix := buildFig1(t)
	inproc := typeOf(t, ix, "bib/author/publications/inproceedings")
	if got := ix.DF("xml", inproc); got != 2 {
		t.Errorf("f_xml^inproceedings = %d, want 2", got)
	}
	author := typeOf(t, ix, "bib/author")
	if got := ix.DF("xml", author); got != 2 {
		t.Errorf("f_xml^author = %d, want 2 (both authors have xml)", got)
	}
	bib := typeOf(t, ix, "bib")
	if got := ix.DF("xml", bib); got != 1 {
		t.Errorf("f_xml^bib = %d, want 1", got)
	}
	if got := ix.DF("swimming", inproc); got != 0 {
		t.Errorf("f_swimming^inproceedings = %d, want 0", got)
	}
	// A keyword matching a tag counts at the node itself.
	if got := ix.DF("hobby", typeOf(t, ix, "bib/author/hobby")); got != 1 {
		t.Errorf("f_hobby^hobby = %d, want 1", got)
	}
}

// tf(k,T) from Section IV: occurrences of k within T-typed subtrees. The
// paper's example tf("XML","author") = 3 matches Figure 1's three XML
// occurrences under authors.
func TestTF(t *testing.T) {
	_, ix := buildFig1(t)
	author := typeOf(t, ix, "bib/author")
	if got := ix.TF("xml", author); got != 3 {
		t.Errorf("tf(xml, author) = %d, want 3", got)
	}
	if got := ix.TF("online", author); got != 2 {
		t.Errorf("tf(online, author) = %d, want 2", got)
	}
	// "2003" occurs twice under author 0 only.
	if got := ix.TF("2003", author); got != 2 {
		t.Errorf("tf(2003, author) = %d, want 2", got)
	}
}

func TestNTAndGT(t *testing.T) {
	_, ix := buildFig1(t)
	author := typeOf(t, ix, "bib/author")
	if got := ix.NT(author); got != 2 {
		t.Errorf("N_author = %d, want 2", got)
	}
	inproc := typeOf(t, ix, "bib/author/publications/inproceedings")
	if got := ix.NT(inproc); got != 3 {
		t.Errorf("N_inproceedings = %d, want 3", got)
	}
	// G_T counts distinct keywords under T; spot check with a manual
	// count for hobby subtrees: {hobby, swimming}.
	hobby := typeOf(t, ix, "bib/author/hobby")
	if got := ix.GT(hobby); got != 2 {
		t.Errorf("G_hobby = %d, want 2", got)
	}
	// and G_root covers the whole vocabulary.
	bib := typeOf(t, ix, "bib")
	if got := ix.GT(bib); got != len(ix.Vocabulary()) {
		t.Errorf("G_bib = %d, want %d", got, len(ix.Vocabulary()))
	}
}

func TestCoDF(t *testing.T) {
	_, ix := buildFig1(t)
	inproc := typeOf(t, ix, "bib/author/publications/inproceedings")
	// "online" and "database" co-occur in exactly one inproceedings.
	got, err := ix.CoDF("online", "database", inproc)
	if err != nil || got != 1 {
		t.Errorf("f_{online,database}^inproceedings = %d (%v), want 1", got, err)
	}
	// order must not matter and the memo must return the same value
	got2, err := ix.CoDF("database", "online", inproc)
	if err != nil || got2 != got {
		t.Errorf("CoDF not symmetric: %d vs %d", got, got2)
	}
	author := typeOf(t, ix, "bib/author")
	// "xml" and "swimming" co-occur under one author (Mary).
	got3, err := ix.CoDF("xml", "swimming", author)
	if err != nil || got3 != 1 {
		t.Errorf("f_{xml,swimming}^author = %d (%v), want 1", got3, err)
	}
	// no co-occurrence at inproceedings level
	got4, err := ix.CoDF("xml", "swimming", inproc)
	if err != nil || got4 != 0 {
		t.Errorf("f_{xml,swimming}^inproceedings = %d (%v), want 0", got4, err)
	}
}

func TestSeekAndSubtreeOps(t *testing.T) {
	_, ix := buildFig1(t)
	l, _ := ix.List("xml")
	first := l.Postings()[0].ID
	if got := l.SeekGE(first); got != 0 {
		t.Errorf("SeekGE(first) = %d", got)
	}
	// Subtree of author 0.1 holds exactly one xml posting.
	s, e := l.InSubtree(dewey.MustParse("0.1"))
	if e-s != 1 {
		t.Errorf("InSubtree(0.1) = [%d,%d)", s, e)
	}
	if !l.HasInSubtree(dewey.MustParse("0.0")) {
		t.Error("HasInSubtree(0.0) = false")
	}
	if l.HasInSubtree(dewey.MustParse("0.5")) {
		t.Error("HasInSubtree(0.5) = true")
	}
}

func TestPartitionRoots(t *testing.T) {
	_, ix := buildFig1(t)
	roots := ix.PartitionRoots()
	if len(roots) != 2 || roots[0].String() != "0.0" || roots[1].String() != "0.1" {
		t.Errorf("partition roots = %v", roots)
	}
}

func TestNewListPanicsOnDisorder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-order postings")
		}
	}()
	reg := xmltree.NewRegistry()
	ty := reg.Intern(nil, "x")
	NewList("t", []Posting{
		{ID: dewey.MustParse("0.2"), Type: ty},
		{ID: dewey.MustParse("0.1"), Type: ty},
	})
}

func TestSaveLoadRoundtrip(t *testing.T) {
	doc, ix := buildFig1(t)
	path := filepath.Join(t.TempDir(), "ix.kv")
	s, err := kvstore.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := kvstore.Open(path, &kvstore.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ix2, err := Load(s2)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.NodeCount != doc.NodeCount {
		t.Errorf("NodeCount = %d, want %d", ix2.NodeCount, doc.NodeCount)
	}
	// Every statistic and list must match the in-memory index.
	vocab := ix.Vocabulary()
	if got := ix2.Vocabulary(); strings.Join(got, ",") != strings.Join(vocab, ",") {
		t.Fatalf("vocab mismatch: %v vs %v", got, vocab)
	}
	for _, term := range vocab {
		if ix.ListLen(term) != ix2.ListLen(term) {
			t.Errorf("ListLen(%q): %d vs %d", term, ix.ListLen(term), ix2.ListLen(term))
		}
		l1, _ := ix.List(term)
		l2, err := ix2.List(term)
		if err != nil {
			t.Fatalf("load list %q: %v", term, err)
		}
		if l1.Len() != l2.Len() {
			t.Fatalf("list %q len %d vs %d", term, l1.Len(), l2.Len())
		}
		ps1, ps2 := l1.Postings(), l2.Postings()
		for i := range ps1 {
			p1, p2 := ps1[i], ps2[i]
			if !dewey.Equal(p1.ID, p2.ID) || p1.Type.Path() != p2.Type.Path() {
				t.Fatalf("list %q posting %d: %v/%s vs %v/%s", term, i, p1.ID, p1.Type, p2.ID, p2.Type)
			}
		}
		for _, ty := range ix.Types.Types() {
			ty2, _ := ix2.Types.ByPath(ty.Path())
			if ix.DF(term, ty) != ix2.DF(term, ty2) || ix.TF(term, ty) != ix2.TF(term, ty2) {
				t.Fatalf("stats mismatch for %q/%s", term, ty.Path())
			}
		}
	}
	for _, ty := range ix.Types.Types() {
		ty2, _ := ix2.Types.ByPath(ty.Path())
		if ix.NT(ty) != ix2.NT(ty2) || ix.GT(ty) != ix2.GT(ty2) {
			t.Fatalf("NT/GT mismatch for %s", ty.Path())
		}
	}
	if len(ix2.PartitionRoots()) != len(ix.PartitionRoots()) {
		t.Error("partition roots lost")
	}
	// CoDF on the loaded index must agree too.
	inproc := typeOf(t, ix, "bib/author/publications/inproceedings")
	inproc2 := typeOf(t, ix2, "bib/author/publications/inproceedings")
	v1, _ := ix.CoDF("online", "database", inproc)
	v2, err := ix2.CoDF("online", "database", inproc2)
	if err != nil || v1 != v2 {
		t.Errorf("CoDF after load: %d vs %d (%v)", v1, v2, err)
	}
}

func TestLoadErrors(t *testing.T) {
	s := kvstore.NewMem()
	defer s.Close()
	if _, err := Load(s); err == nil {
		t.Error("Load on empty store should fail")
	}
	// registry present but doc meta missing
	if err := s.Put([]byte(metaTypesKey), []byte("bib\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(s); err == nil {
		t.Error("Load without doc meta should fail")
	}
}

// Property test: on a random document, DF/TF/CoDF computed via the
// incremental build must equal a brute-force recount from the tree.
func TestPropertyStatsAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	words := []string{"xml", "db", "search", "join", "tree", "query"}
	for trial := 0; trial < 25; trial++ {
		var b strings.Builder
		b.WriteString("<root>")
		nAuthors := 1 + r.Intn(4)
		for a := 0; a < nAuthors; a++ {
			b.WriteString("<item>")
			nPapers := r.Intn(4)
			for p := 0; p < nPapers; p++ {
				b.WriteString("<paper><title>")
				nWords := 1 + r.Intn(4)
				for w := 0; w < nWords; w++ {
					b.WriteString(words[r.Intn(len(words))] + " ")
				}
				b.WriteString("</title></paper>")
			}
			b.WriteString("</item>")
		}
		b.WriteString("</root>")
		doc, err := xmltree.ParseString(b.String(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ix := Build(doc)
		// Brute force: for every (term, type) recount df and tf.
		for _, term := range []string{"xml", "join", "paper", "title"} {
			for _, ty := range doc.Types.Types() {
				wantDF, wantTF := bruteDFTF(doc, term, ty)
				if got := ix.DF(term, ty); got != wantDF {
					t.Fatalf("trial %d: DF(%q,%s) = %d, want %d\ndoc: %s", trial, term, ty, got, wantDF, b.String())
				}
				if got := ix.TF(term, ty); got != wantTF {
					t.Fatalf("trial %d: TF(%q,%s) = %d, want %d", trial, term, ty, got, wantTF)
				}
			}
		}
		// CoDF brute force on one pair.
		for _, ty := range doc.Types.Types() {
			want := bruteCoDF(doc, "xml", "db", ty)
			got, err := ix.CoDF("xml", "db", ty)
			if err != nil || got != want {
				t.Fatalf("trial %d: CoDF(xml,db,%s) = %d (%v), want %d", trial, ty, got, err, want)
			}
		}
	}
}

func bruteDFTF(doc *xmltree.Document, term string, ty *xmltree.Type) (df, tf int) {
	doc.Walk(func(n *xmltree.Node) bool {
		if n.Type != ty {
			return true
		}
		contains := false
		count := 0
		var rec func(m *xmltree.Node)
		rec = func(m *xmltree.Node) {
			for _, w := range m.Terms() {
				if w == term {
					contains = true
					count++
				}
			}
			for _, c := range m.Children {
				rec(c)
			}
		}
		rec(n)
		if contains {
			df++
		}
		tf += count
		return true
	})
	return df, tf
}

func bruteCoDF(doc *xmltree.Document, a, b string, ty *xmltree.Type) int {
	count := 0
	doc.Walk(func(n *xmltree.Node) bool {
		if n.Type != ty {
			return true
		}
		hasA, hasB := false, false
		var rec func(m *xmltree.Node)
		rec = func(m *xmltree.Node) {
			for _, w := range m.Terms() {
				if w == a {
					hasA = true
				}
				if w == b {
					hasB = true
				}
			}
			for _, c := range m.Children {
				rec(c)
			}
		}
		rec(n)
		if hasA && hasB {
			count++
		}
		return true
	})
	return count
}

func TestLargeListChunking(t *testing.T) {
	// Build a document whose "hit" list spans many chunks, then check the
	// save/load roundtrip preserves it exactly.
	var b strings.Builder
	b.WriteString("<root>")
	const n = 3000
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<e><v>hit token%d</v></e>", i)
	}
	b.WriteString("</root>")
	doc, err := xmltree.ParseString(b.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc)
	s := kvstore.NewMem()
	defer s.Close()
	if err := ix.Save(s); err != nil {
		t.Fatal(err)
	}
	ix2, err := Load(s)
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := ix.List("hit")
	l2, err := ix2.List("hit")
	if err != nil {
		t.Fatal(err)
	}
	if l1.Len() != n || l2.Len() != n {
		t.Fatalf("lens %d %d, want %d", l1.Len(), l2.Len(), n)
	}
	ps1, ps2 := l1.Postings(), l2.Postings()
	for i := 0; i < n; i++ {
		if !dewey.Equal(ps1[i].ID, ps2[i].ID) {
			t.Fatalf("posting %d: %s vs %s", i, ps1[i].ID, ps2[i].ID)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "<e><t>alpha beta gamma %d</t></e>", i)
	}
	sb.WriteString("</root>")
	src := sb.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doc, err := xmltree.ParseString(src, nil)
		if err != nil {
			b.Fatal(err)
		}
		Build(doc)
	}
}

func TestCompleteByPrefix(t *testing.T) {
	_, ix := buildFig1(t)
	got := ix.CompleteByPrefix("s", 10)
	if len(got) == 0 {
		t.Fatal("no completions for 's'")
	}
	for i := 1; i < len(got); i++ {
		if ix.ListLen(got[i-1]) < ix.ListLen(got[i]) {
			t.Errorf("completions not frequency-ordered: %v", got)
		}
	}
	for _, term := range got {
		if !strings.HasPrefix(term, "s") {
			t.Errorf("completion %q lacks prefix", term)
		}
	}
	if got := ix.CompleteByPrefix("", 5); got != nil {
		t.Error("empty prefix completed")
	}
	if got := ix.CompleteByPrefix("xml", 0); got != nil {
		t.Error("k=0 completed")
	}
	if got := ix.CompleteByPrefix("zzz", 5); got != nil {
		t.Error("unmatched prefix completed")
	}
	if got := ix.CompleteByPrefix("xml", 1); len(got) != 1 {
		t.Errorf("cap ignored: %v", got)
	}
}

// TestSaveLoadManyTypes: a registry that outgrows one store cell — here
// 300 tags of 12 bytes under one parent — spills into continuation cells
// and loads back whole, in interning order.
func TestSaveLoadManyTypes(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := range 300 {
		fmt.Fprintf(&b, "<tag%09d>w%d</tag%09d>", i, i, i)
	}
	b.WriteString("</r>")
	doc, err := xmltree.ParseString(b.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc)
	s := kvstore.NewMem()
	if len(ix.Types.Marshal()) <= s.MaxKV() {
		t.Fatalf("registry of %d bytes fits one cell of %d", len(ix.Types.Marshal()), s.MaxKV())
	}
	if err := ix.Save(s); err != nil {
		t.Fatal(err)
	}
	ix2, err := Load(s)
	if err != nil {
		t.Fatal(err)
	}
	want, got := ix.Types.Types(), ix2.Types.Types()
	if len(got) != len(want) {
		t.Fatalf("loaded %d types, saved %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Path() != want[i].Path() {
			t.Fatalf("type %d: loaded %s, saved %s", i, got[i].Path(), want[i].Path())
		}
	}
	if n := ix2.ListLen("w299"); n != 1 {
		t.Errorf("ListLen(w299) = %d after reload, want 1", n)
	}
}
