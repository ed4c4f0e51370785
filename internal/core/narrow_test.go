package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xrefine/internal/kvstore"
	"xrefine/internal/narrow"
	"xrefine/internal/xmltree"
)

func broadDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	var b strings.Builder
	b.WriteString("<bib>")
	topics := []string{"indexing", "streams", "mining", "caching"}
	for a := 0; a < 30; a++ {
		b.WriteString("<author><publications>")
		for p := 0; p < 3; p++ {
			fmt.Fprintf(&b, "<paper><title>database %s</title><year>%d</year></paper>",
				topics[(a+p)%len(topics)], 2000+(a+p)%4)
		}
		b.WriteString("</publications></author>")
	}
	b.WriteString("</bib>")
	doc, err := xmltree.ParseString(b.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestEngineNarrow(t *testing.T) {
	doc := broadDoc(t)
	e := NewFromDocument(doc, nil)
	out, err := e.Narrow(context.Background(), "database", &narrow.Options{MaxResults: 20, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !out.TooBroad || len(out.Suggestions) == 0 {
		t.Fatalf("narrow outcome = %+v", out)
	}
	for _, s := range out.Suggestions {
		if len(s.Results) >= out.OriginalResults {
			t.Errorf("suggestion %v failed to narrow", s.Keywords)
		}
	}
}

func TestEngineNarrowWithoutDocument(t *testing.T) {
	doc := broadDoc(t)
	e := NewFromDocument(doc, nil)
	store := kvstore.NewMem()
	defer store.Close()
	if err := e.SaveIndex(store); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Document() != nil {
		t.Fatal("loaded engine should have no document")
	}
	if _, err := loaded.Narrow(context.Background(), "database", nil); err != narrow.ErrNeedsDocument {
		t.Errorf("expected ErrNeedsDocument, got %v", err)
	}
}

func TestEngineNarrowEmptyQuery(t *testing.T) {
	e := NewFromDocument(broadDoc(t), nil)
	if _, err := e.Narrow(context.Background(), "  ", nil); err == nil {
		t.Error("empty query accepted")
	}
}

func TestSaveIndexWithDocumentRestoresNarrow(t *testing.T) {
	doc := broadDoc(t)
	e := NewFromDocument(doc, nil)
	store := kvstore.NewMem()
	defer store.Close()
	if err := e.SaveIndexWithDocument(store); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Document() == nil {
		t.Fatal("document not restored")
	}
	out, err := loaded.Narrow(context.Background(), "database", &narrow.Options{MaxResults: 20, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !out.TooBroad || len(out.Suggestions) == 0 {
		t.Fatalf("narrow on restored engine: %+v", out)
	}
	// Snippets work too.
	resp, err := query(loaded, "database indexing")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Queries) == 0 || len(resp.Queries[0].Results) == 0 {
		t.Fatal("no results")
	}
	s := Snippet(loaded.Document(), resp.Queries[0].Results[0], 60)
	if !strings.Contains(s, "database") {
		t.Errorf("snippet = %q", s)
	}
}

func TestSaveIndexWithDocumentRequiresDocument(t *testing.T) {
	e := NewFromIndex(NewFromDocument(broadDoc(t), nil).Index(), nil)
	store := kvstore.NewMem()
	defer store.Close()
	if err := e.SaveIndexWithDocument(store); err == nil {
		t.Error("document-less engine saved a document")
	}
}
