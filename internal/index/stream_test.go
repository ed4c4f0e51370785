package index

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xrefine/internal/dewey"
	"xrefine/internal/xmltree"
)

// assertIndexesEqual compares every observable of two indexes built over
// the same document.
func assertIndexesEqual(t *testing.T, a, b *Index, label string) {
	t.Helper()
	if a.NodeCount != b.NodeCount {
		t.Fatalf("%s: NodeCount %d vs %d", label, a.NodeCount, b.NodeCount)
	}
	va, vb := a.Vocabulary(), b.Vocabulary()
	if strings.Join(va, ",") != strings.Join(vb, ",") {
		t.Fatalf("%s: vocab %v vs %v", label, va, vb)
	}
	if a.Types.Len() != b.Types.Len() {
		t.Fatalf("%s: type count %d vs %d", label, a.Types.Len(), b.Types.Len())
	}
	for _, term := range va {
		la, err := a.List(term)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := b.List(term)
		if err != nil {
			t.Fatal(err)
		}
		if la.Len() != lb.Len() {
			t.Fatalf("%s: list %q len %d vs %d", label, term, la.Len(), lb.Len())
		}
		psa, psb := la.Postings(), lb.Postings()
		for i := range psa {
			pa, pb := psa[i], psb[i]
			if !dewey.Equal(pa.ID, pb.ID) || pa.Type.Path() != pb.Type.Path() {
				t.Fatalf("%s: list %q posting %d: %s/%s vs %s/%s",
					label, term, i, pa.ID, pa.Type, pb.ID, pb.Type)
			}
		}
		for _, ta := range a.Types.Types() {
			tb, ok := b.Types.ByPath(ta.Path())
			if !ok {
				t.Fatalf("%s: type %s missing", label, ta.Path())
			}
			if a.DF(term, ta) != b.DF(term, tb) {
				t.Fatalf("%s: DF(%q,%s) %d vs %d", label, term, ta.Path(), a.DF(term, ta), b.DF(term, tb))
			}
			if a.TF(term, ta) != b.TF(term, tb) {
				t.Fatalf("%s: TF(%q,%s) %d vs %d", label, term, ta.Path(), a.TF(term, ta), b.TF(term, tb))
			}
		}
	}
	for _, ta := range a.Types.Types() {
		tb, _ := b.Types.ByPath(ta.Path())
		if a.NT(ta) != b.NT(tb) || a.GT(ta) != b.GT(tb) {
			t.Fatalf("%s: NT/GT mismatch at %s", label, ta.Path())
		}
	}
	pa, pb := a.PartitionRoots(), b.PartitionRoots()
	if len(pa) != len(pb) {
		t.Fatalf("%s: partitions %d vs %d", label, len(pa), len(pb))
	}
	for i := range pa {
		if !dewey.Equal(pa[i], pb[i]) {
			t.Fatalf("%s: partition %d: %s vs %s", label, i, pa[i], pb[i])
		}
	}
}

// streamDocs are documents BuildStream must index as Build(Parse) does;
// they also seed FuzzBuildStream.
var streamDocs = []string{
	`<bib><author><name>John Ben</name><paper year="2003"><title>xml database search</title></paper></author></bib>`,
	`<r>text before <a>inner a</a> text between <b>inner b</b> text after</r>`,
	`<r><a>shared shared</a><b>shared</b></r>`,
	`<title>title words in a title tag</title>`, // tag term also in text
	`<r><p><p><p>deep nesting terms</p></p></p></r>`,
	// Mixed content: a child's tags split its parent's text into words.
	`<r><a>foo<b>x</b>bar</a></r>`,
	`<r>pre<a>x</a>post</r>`,
	`<r year="1999">pre<p id="7">head<t>x</t>tail</p>post</r>`,
	`<r>shared<a>shared</a><b>shared</b>shared</r>`, // the root's posting leads
}

func TestBuildStreamEquivalentToBuild(t *testing.T) {
	for i, src := range streamDocs {
		doc, err := xmltree.ParseString(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		fromTree := Build(doc)
		fromStream, err := BuildStream(strings.NewReader(src), nil)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		assertIndexesEqual(t, fromTree, fromStream, fmt.Sprintf("doc %d", i))
	}
}

func TestBuildStreamPropertyEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(808))
	words := []string{"xml", "db", "search", "tree", "query"}
	for trial := 0; trial < 30; trial++ {
		var b strings.Builder
		// touch writes, half the time, a word flush against the tags
		// around it: mixed content, where element boundaries split words.
		touch := func() {
			if r.Intn(2) == 0 {
				b.WriteString(words[r.Intn(len(words))])
			}
		}
		b.WriteString("<root>")
		for a := 0; a < 1+r.Intn(4); a++ {
			touch()
			b.WriteString("<item>")
			for p := 0; p < r.Intn(4); p++ {
				touch()
				fmt.Fprintf(&b, `<paper year="%d">`, 2000+r.Intn(5))
				touch()
				b.WriteString("<title>")
				for w := 0; w < 1+r.Intn(4); w++ {
					b.WriteString(words[r.Intn(len(words))] + " ")
				}
				b.WriteString("</title>")
				touch()
				b.WriteString("</paper>")
			}
			touch()
			b.WriteString("</item>")
		}
		touch()
		b.WriteString("</root>")
		src := b.String()
		doc, err := xmltree.ParseString(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		fromTree := Build(doc)
		fromStream, err := BuildStream(strings.NewReader(src), nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertIndexesEqual(t, fromTree, fromStream, fmt.Sprintf("trial %d", trial))
	}
}

// FuzzBuildStream holds the streaming build to the tree build on any
// input: either both fail, or they build the same index.
func FuzzBuildStream(f *testing.F) {
	for _, src := range streamDocs {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fromStream, streamErr := BuildStream(strings.NewReader(src), nil)
		doc, treeErr := xmltree.ParseString(src, nil)
		if (streamErr == nil) != (treeErr == nil) {
			t.Fatalf("BuildStream error %v, Parse error %v", streamErr, treeErr)
		}
		if treeErr == nil {
			assertIndexesEqual(t, Build(doc), fromStream, "fuzz")
		}
	})
}

func TestBuildStreamErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"<a><b></a>",
		"<a></a><b></b>",
		"plain text",
	} {
		if _, err := BuildStream(strings.NewReader(src), nil); err == nil {
			t.Errorf("BuildStream(%q) succeeded", src)
		}
	}
	deep := strings.Repeat("<a>", 30) + strings.Repeat("</a>", 30)
	if _, err := BuildStream(strings.NewReader(deep), &xmltree.Options{MaxDepth: 10}); err == nil {
		t.Error("depth guard ignored")
	}
}

func TestBuildStreamAttributesOption(t *testing.T) {
	src := `<r><p year="2003">text</p></r>`
	withAttrs, err := BuildStream(strings.NewReader(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !withAttrs.HasTerm("2003") {
		t.Error("attribute value not indexed by default")
	}
	without, err := BuildStream(strings.NewReader(src), &xmltree.Options{AttributesAsNodes: false})
	if err != nil {
		t.Fatal(err)
	}
	if without.HasTerm("2003") {
		t.Error("attribute indexed despite option off")
	}
}

func BenchmarkBuildStream(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "<e><t>alpha beta gamma %d</t></e>", i)
	}
	sb.WriteString("</root>")
	src := sb.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildStream(strings.NewReader(src), nil); err != nil {
			b.Fatal(err)
		}
	}
}
