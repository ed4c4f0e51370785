package xmltree

import (
	"reflect"
	"strings"
	"testing"

	"xrefine/internal/dewey"
)

// paperDoc approximates Figure 1 of the paper: a bib with two authors, each
// with publications.
const paperDoc = `
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

func parsePaperDoc(t *testing.T) *Document {
	t.Helper()
	d, err := ParseString(paperDoc, nil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

func TestParseShape(t *testing.T) {
	d := parsePaperDoc(t)
	if d.Root.Tag != "bib" {
		t.Fatalf("root tag = %q", d.Root.Tag)
	}
	if len(d.Root.Children) != 2 {
		t.Fatalf("root children = %d", len(d.Root.Children))
	}
	if got := d.Root.Children[0].ID.String(); got != "0.0" {
		t.Errorf("first author ID = %s", got)
	}
	if got := d.Root.Children[1].Children[2].Tag; got != "hobby" {
		t.Errorf("expected hobby, got %q", got)
	}
}

func TestNodeByID(t *testing.T) {
	d := parsePaperDoc(t)
	n, ok := d.NodeByID(dewey.MustParse("0.0.1.1.0"))
	if !ok {
		t.Fatal("node not found")
	}
	if n.Tag != "title" || !strings.Contains(n.Text, "online database") {
		t.Errorf("got %q %q", n.Tag, n.Text)
	}
	if _, ok := d.NodeByID(dewey.MustParse("0.9")); ok {
		t.Error("bogus ID resolved")
	}
	if _, ok := d.NodeByID(dewey.MustParse("1")); ok {
		t.Error("wrong root component resolved")
	}

	// A deletion leaves a gap: positions and ordinals of the surviving
	// siblings diverge, and lookups must follow the ordinals.
	first, _ := d.NodeByID(dewey.MustParse("0.0.1.0"))
	if _, err := d.Detach(first); err != nil {
		t.Fatal(err)
	}
	for id, title := range map[string]string{"0.0.1.1.0": "online database systems", "0.0.1.2.0": "XML data mining"} {
		if n, ok := d.NodeByID(dewey.MustParse(id)); !ok || n.Text != title {
			t.Errorf("after the gap, %s = %v, %v; want the title %q", id, n, ok, title)
		}
	}
	for _, id := range []string{"0.0.1.0", "0.0.1.0.0", "0.0.1.3"} {
		if _, ok := d.NodeByID(dewey.MustParse(id)); ok {
			t.Errorf("%s resolved after the deletion", id)
		}
	}
}

func TestTypes(t *testing.T) {
	d := parsePaperDoc(t)
	ty, ok := d.Types.ByPath("bib/author/publications/inproceedings")
	if !ok {
		t.Fatal("inproceedings type missing")
	}
	if ty.Depth != 3 || ty.Tag != "inproceedings" {
		t.Errorf("type = %+v", ty)
	}
	authorT, _ := d.Types.ByPath("bib/author")
	if !ty.HasPrefix(authorT) {
		t.Error("inproceedings type should have author prefix")
	}
	if authorT.HasPrefix(ty) {
		t.Error("prefix direction reversed")
	}
	rootT, _ := d.Types.ByPath("bib")
	a, err := ty.AncestorAt(0)
	if err != nil || a != rootT {
		t.Errorf("AncestorAt(0) = %v, %v", a, err)
	}
	if _, err := ty.AncestorAt(9); err == nil {
		t.Error("out-of-range AncestorAt should error")
	}
	// Both inproceedings elements share one interned type.
	n1, _ := d.NodeByID(dewey.MustParse("0.0.1.0"))
	n2, _ := d.NodeByID(dewey.MustParse("0.1.1.0"))
	if n1.Type != n2.Type {
		t.Error("same-path nodes must share an interned type")
	}
}

func TestTerms(t *testing.T) {
	d := parsePaperDoc(t)
	n, _ := d.NodeByID(dewey.MustParse("0.0.1.1.0"))
	got := n.Terms()
	want := []string{"title", "online", "database", "systems"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestWalkDocumentOrder(t *testing.T) {
	d := parsePaperDoc(t)
	var ids []dewey.ID
	d.Walk(func(n *Node) bool {
		ids = append(ids, n.ID)
		return true
	})
	if len(ids) != d.NodeCount {
		t.Fatalf("walked %d of %d nodes", len(ids), d.NodeCount)
	}
	for i := 1; i < len(ids); i++ {
		if dewey.Compare(ids[i-1], ids[i]) >= 0 {
			t.Fatalf("walk out of document order at %d: %s >= %s", i, ids[i-1], ids[i])
		}
	}
}

func TestWalkPrune(t *testing.T) {
	d := parsePaperDoc(t)
	count := 0
	d.Walk(func(n *Node) bool {
		count++
		return n.Tag != "author" // do not descend into authors
	})
	if count != 3 { // bib + 2 authors
		t.Errorf("pruned walk visited %d nodes, want 3", count)
	}
}

func TestPartitions(t *testing.T) {
	d := parsePaperDoc(t)
	parts := d.Partitions()
	if len(parts) != 2 || parts[0].Tag != "author" || parts[1].Tag != "author" {
		t.Errorf("partitions = %v", parts)
	}
}

func TestAttributesAsNodes(t *testing.T) {
	src := `<bib><paper year="2003" title="XML Search">body text</paper></bib>`
	d, err := ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	paper := d.Root.Children[0]
	if len(paper.Children) != 2 {
		t.Fatalf("attr children = %d", len(paper.Children))
	}
	if paper.Children[0].Tag != "year" || paper.Children[0].Text != "2003" {
		t.Errorf("year attr = %+v", paper.Children[0])
	}
	// And disabled:
	d2, err := ParseString(src, &Options{AttributesAsNodes: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Root.Children[0].Children) != 0 {
		t.Error("attributes materialized despite option off")
	}
}

// TestTextCoalescing pins how a node's character data becomes its Text:
// each run between element boundaries is trimmed, non-empty runs join with
// one space, and comments or CDATA sections do not split a run.
func TestTextCoalescing(t *testing.T) {
	for _, tc := range []struct{ src, root, first string }{
		{`<a>one <b>inner</b> two</a>`, "one two", "inner"},
		{`<r><a>foo<b>x</b>bar</a></r>`, "", "foo bar"},
		{`<r>pre<a>x</a>post</r>`, "pre post", "x"},
		{`<r>  pre  <a/>  <b/> post </r>`, "pre post", ""},
		{`<r>a<!--c-->b<![CDATA[ c ]]>d</r>`, "ab c d", ""},
		{`<r><p year=" 2003 ">head<t>x</t>tail</p></r>`, "", "head tail"},
		{"<r>one\n two<a/>three</r>", "one\n two three", ""},
	} {
		d, err := ParseString(tc.src, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		first := ""
		if len(d.Root.Children) > 0 {
			first = d.Root.Children[0].Text
		}
		if d.Root.Text != tc.root || first != tc.first {
			t.Errorf("%s: root %q, first child %q; want %q, %q", tc.src, d.Root.Text, first, tc.root, tc.first)
		}
	}
	d, err := ParseString(`<a>one <b>inner</b> two</a>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Root.Subtext(); got != "one two inner" {
		t.Errorf("subtext = %q", got)
	}
}

// TestParsePartitions holds the partition-at-a-time reader to Parse: the
// same partitions, in order, each complete when handed over, and a
// childless root with the whole document's counts.
func TestParsePartitions(t *testing.T) {
	src := `<bib key="k1">lead<author><name>Ann</name><paper year="2003">x</paper></author>mid<author><name>Bo</name></author>tail</bib>`
	want, err := ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []*Node
	d, err := ParsePartitions(strings.NewReader(src), nil, func(p *Node) {
		if len(p.Parent.Children) != 1 || p.Parent.Children[0] != p {
			t.Errorf("partition %s handed over beside %d others", p.ID, len(p.Parent.Children)-1)
		}
		got = append(got, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Root.Children) != 0 || d.Root.Text != want.Root.Text || d.NodeCount != want.NodeCount || d.Types.Len() != want.Types.Len() {
		t.Fatalf("root: %d children, text %q, %d nodes, %d types", len(d.Root.Children), d.Root.Text, d.NodeCount, d.Types.Len())
	}
	wantParts := want.Partitions()
	if len(got) != len(wantParts) {
		t.Fatalf("%d partitions, want %d", len(got), len(wantParts))
	}
	for i, p := range got {
		if p.ID.String() != wantParts[i].ID.String() || p.Subtext() != wantParts[i].Subtext() || SubtreeSize(p) != SubtreeSize(wantParts[i]) {
			t.Errorf("partition %d: %s %q, want %s %q", i, p.ID, p.Subtext(), wantParts[i].ID, wantParts[i].Subtext())
		}
	}
	if _, err := ParsePartitions(strings.NewReader("<a><b></a>"), nil, func(*Node) {}); err == nil {
		t.Error("malformed XML accepted")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"<a><b></a>",
		"<a></a><b></b>",
		"just text",
	} {
		if _, err := ParseString(src, nil); err == nil {
			t.Errorf("ParseString(%q): expected error", src)
		}
	}
}

func TestMaxDepth(t *testing.T) {
	deep := strings.Repeat("<a>", 40) + strings.Repeat("</a>", 40)
	if _, err := ParseString(deep, &Options{MaxDepth: 10}); err == nil {
		t.Error("expected depth error")
	}
	if _, err := ParseString(deep, &Options{MaxDepth: 50}); err != nil {
		t.Errorf("depth 50 should parse: %v", err)
	}
}

func TestSnippet(t *testing.T) {
	d := parsePaperDoc(t)
	n, _ := d.NodeByID(dewey.MustParse("0.1.2"))
	s := n.Snippet(100)
	if !strings.Contains(s, "hobby") || !strings.Contains(s, "swimming") {
		t.Errorf("snippet = %q", s)
	}
	short := n.Snippet(3)
	if !strings.Contains(short, "…") {
		t.Errorf("truncated snippet = %q", short)
	}
}

func TestRegistryMarshalRoundtrip(t *testing.T) {
	d := parsePaperDoc(t)
	data := d.Types.Marshal()
	r2, err := UnmarshalRegistry(data)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != d.Types.Len() {
		t.Fatalf("len %d != %d", r2.Len(), d.Types.Len())
	}
	for _, ty := range d.Types.Types() {
		got, ok := r2.ByPath(ty.Path())
		if !ok || got.ID != ty.ID || got.Depth != ty.Depth || got.Tag != ty.Tag {
			t.Errorf("type %s mismatched after roundtrip: %+v", ty.Path(), got)
		}
	}
}

func TestUnmarshalRegistryErrors(t *testing.T) {
	if _, err := UnmarshalRegistry([]byte("")); err == nil {
		t.Error("empty registry should error")
	}
	if _, err := UnmarshalRegistry([]byte("a/b\n")); err == nil {
		t.Error("orphan child should error")
	}
}

func TestByTag(t *testing.T) {
	d := parsePaperDoc(t)
	tys := d.Types.ByTag("inproceedings")
	if len(tys) != 1 {
		t.Fatalf("ByTag(inproceedings) = %d types", len(tys))
	}
	if len(d.Types.ByTag("nosuch")) != 0 {
		t.Error("ByTag(nosuch) nonempty")
	}
}

func TestSortTypesByPath(t *testing.T) {
	d := parsePaperDoc(t)
	tys := d.Types.SortTypesByPath()
	for i := 1; i < len(tys); i++ {
		if tys[i-1].Path() >= tys[i].Path() {
			t.Fatalf("types not sorted at %d", i)
		}
	}
}
