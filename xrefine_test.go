package xrefine_test

import (
	"context"
	"strings"
	"testing"

	"xrefine"
)

const demo = `
<bib>
  <author>
    <name>John Ben</name>
    <publications>
      <inproceedings><title>online database systems</title><year>2003</year></inproceedings>
      <inproceedings><title>efficient keyword search</title><year>2005</year></inproceedings>
    </publications>
  </author>
</bib>`

func TestFacadeEndToEnd(t *testing.T) {
	eng, err := xrefine.NewFromXML(strings.NewReader(demo), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.QueryTermsCtx(context.Background(), xrefine.Tokenize("online databse"), xrefine.StrategyPartition, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.NeedRefine || len(resp.Queries) == 0 {
		t.Fatalf("response = %+v", resp)
	}
	if got := strings.Join(resp.Queries[0].Keywords, " "); got != "database online" {
		t.Errorf("best refinement = %v", got)
	}
}

func TestFacadePersistence(t *testing.T) {
	eng, err := xrefine.NewFromXML(strings.NewReader(demo), nil)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ix.kv"
	store, err := xrefine.OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveIndex(store); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := xrefine.OpenStore(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	eng2, err := xrefine.OpenIndex(ro, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng2.QueryTermsCtx(context.Background(), xrefine.Tokenize("efficient keyword"), xrefine.StrategyPartition, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.NeedRefine || len(resp.Queries[0].Results) == 0 {
		t.Fatalf("reloaded engine broken: %+v", resp)
	}
}

func TestFacadeSnippet(t *testing.T) {
	doc, err := xrefine.ParseXML(strings.NewReader(demo))
	if err != nil {
		t.Fatal(err)
	}
	eng := xrefine.NewFromDocument(doc, &xrefine.Config{
		Lexicon: xrefine.BuiltinLexicon(),
		Rank:    xrefine.DefaultRankModel(),
	})
	resp, err := eng.QueryTermsCtx(context.Background(), xrefine.Tokenize("online database"), xrefine.StrategyPartition, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := xrefine.Snippet(doc, resp.Queries[0].Results[0], 60)
	if !strings.Contains(s, "online database") {
		t.Errorf("snippet = %q", s)
	}
}
