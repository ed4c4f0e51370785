package core

import (
	"strings"
	"testing"
)

func TestExpandResultsToEntity(t *testing.T) {
	// Two query terms hit two different fields of the same paper; raw
	// SLCA is the paper already, but a title-only match (single field)
	// is a title node — expansion lifts it to the paper entity.
	e, _ := newEngine(t, &Config{ExpandResults: true})
	resp, err := query(e, "online database")
	if err != nil {
		t.Fatal(err)
	}
	if resp.NeedRefine {
		t.Fatal("unexpected refinement")
	}
	res := resp.Queries[0].Results
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	// Raw SLCA was the title node 0.0.1.0.0; expansion must lift it to a
	// search-for-typed ancestor (author or publications here).
	if len(res[0].ID) >= 5 {
		t.Errorf("not lifted: %s (%s)", res[0].ID, res[0].Type.Path())
	}
	found := false
	for _, c := range resp.SearchFor {
		if c.Type == res[0].Type {
			found = true
		}
	}
	if !found {
		t.Errorf("lifted type %s is not a search-for candidate", res[0].Type.Path())
	}
}

func TestExpandResultsDeduplicates(t *testing.T) {
	// A document where one entity matches through two children: without
	// expansion two SLCAs, with expansion one entity.
	src := `<bib>
  <author><publications>
    <paper><title>alpha beta</title><note>alpha beta</note></paper>
  </publications></author>
  <author><publications>
    <paper><title>other words</title></paper>
  </publications></author>
</bib>`
	plain, err := NewFromXML(strings.NewReader(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := NewFromXML(strings.NewReader(src), &Config{ExpandResults: true})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := query(plain, "alpha beta")
	if err != nil {
		t.Fatal(err)
	}
	re, err := query(expanded, "alpha beta")
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.Queries[0].Results) != 2 {
		t.Fatalf("plain results = %d, want 2 (title and note)", len(rp.Queries[0].Results))
	}
	if len(re.Queries[0].Results) != 1 {
		t.Fatalf("expanded results = %d, want 1 merged entity", len(re.Queries[0].Results))
	}
}

func TestExpandResultsNoCandidatesKeepsMatches(t *testing.T) {
	if got := expandResults(nil, nil); got != nil {
		t.Error("nil in, nil out expected")
	}
}

func TestComplete(t *testing.T) {
	e, _ := newEngine(t, nil)
	got := e.Complete("data", 5)
	if len(got) == 0 || got[0] != "database" {
		t.Errorf("Complete(data) = %v", got)
	}
	// completes the LAST token
	got2 := e.Complete("online dat", 5)
	if len(got2) == 0 || !strings.HasPrefix(got2[0], "dat") {
		t.Errorf("Complete(online dat) = %v", got2)
	}
	if e.Complete("   ", 5) != nil {
		t.Error("blank partial completed")
	}
	if e.Complete("zzzz", 5) != nil {
		t.Error("no-match prefix completed")
	}
	if got := e.Complete("s", 2); len(got) > 2 {
		t.Errorf("k ignored: %v", got)
	}
}
