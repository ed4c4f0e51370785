package xmltree

import (
	"fmt"
	"strings"
	"testing"

	"xrefine/internal/dewey"
	"xrefine/internal/kvstore"
)

func roundtripDoc(t *testing.T, src string) (*Document, *Document) {
	t.Helper()
	doc, err := ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := kvstore.NewMem()
	t.Cleanup(func() { s.Close() })
	if err := SaveDocument(doc, s); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadDocument(s)
	if err != nil || !ok {
		t.Fatalf("LoadDocument: %v %v", ok, err)
	}
	return doc, got
}

func assertDocsEqual(t *testing.T, want, got *Document) {
	t.Helper()
	if want.NodeCount != got.NodeCount {
		t.Fatalf("NodeCount %d vs %d", want.NodeCount, got.NodeCount)
	}
	var wNodes, gNodes []*Node
	want.Walk(func(n *Node) bool { wNodes = append(wNodes, n); return true })
	got.Walk(func(n *Node) bool { gNodes = append(gNodes, n); return true })
	if len(wNodes) != len(gNodes) {
		t.Fatalf("walk counts %d vs %d", len(wNodes), len(gNodes))
	}
	for i := range wNodes {
		w, g := wNodes[i], gNodes[i]
		if w.Tag != g.Tag || w.Text != g.Text || !dewey.Equal(w.ID, g.ID) ||
			w.Type.Path() != g.Type.Path() || len(w.Children) != len(g.Children) {
			t.Fatalf("node %d: %s/%q/%s vs %s/%q/%s", i, w.Tag, w.Text, w.ID, g.Tag, g.Text, g.ID)
		}
	}
}

func TestDocumentRoundtrip(t *testing.T) {
	for _, src := range []string{
		`<bib><author><name>John</name><paper year="2003"><title>xml</title></paper></author></bib>`,
		`<a>text <b>inner</b> more</a>`,
		`<solo>just one</solo>`,
		`<r><x/><y/><z/></r>`,
	} {
		want, got := roundtripDoc(t, src)
		assertDocsEqual(t, want, got)
	}
}

func TestDocumentRoundtripLargeText(t *testing.T) {
	// A text value far larger than one kvstore cell forces chunking.
	big := strings.Repeat("lorem ipsum dolor sit amet ", 500)
	src := fmt.Sprintf(`<r><doc>%s</doc><doc>short</doc></r>`, big)
	want, got := roundtripDoc(t, src)
	assertDocsEqual(t, want, got)
	n, ok := got.NodeByID(dewey.MustParse("0.0"))
	if !ok || len(n.Text) != len(strings.TrimSpace(big)) {
		t.Fatalf("large text lost: %d", len(n.Text))
	}
}

func TestDocumentRoundtripManyNodes(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&b, "<e><v>node %d content</v></e>", i)
	}
	b.WriteString("</r>")
	want, got := roundtripDoc(t, b.String())
	assertDocsEqual(t, want, got)
}

func TestLoadDocumentAbsent(t *testing.T) {
	s := kvstore.NewMem()
	defer s.Close()
	doc, ok, err := LoadDocument(s)
	if err != nil || ok || doc != nil {
		t.Fatalf("absent doc: %v %v %v", doc, ok, err)
	}
}

func TestLoadDocumentCorrupt(t *testing.T) {
	s := kvstore.NewMem()
	defer s.Close()
	if err := s.Put([]byte(docStreamKey), []byte{0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadDocument(s); err == nil {
		t.Error("corrupt doc stream loaded")
	}
	// Trailing garbage after a valid tree.
	s2 := kvstore.NewMem()
	defer s2.Close()
	doc, _ := ParseString("<a>x</a>", nil)
	if err := SaveDocument(doc, s2); err != nil {
		t.Fatal(err)
	}
	// A stray continuation cell past the stream's end.
	if err := s2.Put([]byte(docStreamKey+"\x00\x00\x00\x00\x09"), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadDocument(s2); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestSaveDocumentNil(t *testing.T) {
	s := kvstore.NewMem()
	defer s.Close()
	if err := SaveDocument(nil, s); err == nil {
		t.Error("nil document accepted")
	}
}
