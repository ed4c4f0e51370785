package datagen

import (
	"strings"
	"testing"

	"xrefine/internal/index"
	"xrefine/internal/searchfor"
	"xrefine/internal/slca"
	"xrefine/internal/xmltree"
)

func TestDBLPShape(t *testing.T) {
	doc, err := DBLPDocument(DBLPConfig{Authors: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Tag != "bib" {
		t.Fatalf("root = %s", doc.Root.Tag)
	}
	if len(doc.Partitions()) != 50 {
		t.Fatalf("partitions = %d, want 50", len(doc.Partitions()))
	}
	for _, path := range []string{
		"bib/author",
		"bib/author/name",
		"bib/author/publications/inproceedings",
		"bib/author/publications/inproceedings/title",
		"bib/author/publications/inproceedings/year",
	} {
		if _, ok := doc.Types.ByPath(path); !ok {
			t.Errorf("type %s missing", path)
		}
	}
}

func TestDBLPDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := DBLP(&a, DBLPConfig{Authors: 20, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := DBLP(&b, DBLPConfig{Authors: 20, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different documents")
	}
	var c strings.Builder
	if err := DBLP(&c, DBLPConfig{Authors: 20, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Error("different seeds produced identical documents")
	}
}

func TestDBLPZipfSkew(t *testing.T) {
	doc, err := DBLPDocument(DBLPConfig{Authors: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	// The head of the vocabulary must be much more frequent than the
	// tail — the paper's "frequencies of query keywords typically vary
	// significantly".
	head := ix.ListLen(titleWords[0])
	tail := ix.ListLen(titleWords[len(titleWords)-1])
	if head < 10*tail || head == 0 {
		t.Errorf("no Zipf skew: head %d vs tail %d", head, tail)
	}
}

func TestDBLPSupportsSearchForInference(t *testing.T) {
	doc, err := DBLPDocument(DBLPConfig{Authors: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	cands := searchfor.Infer(ix, []string{"database", "query"}, nil)
	if len(cands) == 0 {
		t.Fatal("no search-for candidates on generated corpus")
	}
	// The top candidate must be an entity-ish type, not a leaf.
	top := cands[0].Type
	if top.Tag == "title" || top.Tag == "year" {
		t.Errorf("leaf type %s inferred as primary search-for node", top.Path())
	}
}

func TestBaseballShape(t *testing.T) {
	doc, err := BaseballDocument(BaseballConfig{Teams: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Tag != "season" {
		t.Fatalf("root = %s", doc.Root.Tag)
	}
	if len(doc.Partitions()) != 2 {
		t.Fatalf("partitions (leagues) = %d", len(doc.Partitions()))
	}
	teamType, ok := doc.Types.ByPath("season/league/division/team")
	if !ok {
		t.Fatal("team type missing")
	}
	ix := index.Build(doc)
	if got := ix.NT(teamType); got != 12 {
		t.Errorf("teams = %d, want 12", got)
	}
	if _, ok := doc.Types.ByPath("season/league/division/team/players/player/avg"); !ok {
		t.Error("player avg type missing")
	}
}

func TestWorkloadCases(t *testing.T) {
	doc, err := DBLPDocument(DBLPConfig{Authors: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cases, err := Workload(doc, WorkloadConfig{Seed: 9, Queries: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 40 {
		t.Fatalf("cases = %d", len(cases))
	}
	ix := index.Build(doc)
	for i, cs := range cases {
		if len(cs.Intended) < 2 || len(cs.Intended) > 4 {
			t.Errorf("case %d: intended length %d", i, len(cs.Intended))
		}
		if len(cs.Applied) == 0 {
			t.Errorf("case %d: no corruption applied", i)
		}
		if cs.String() == "" {
			t.Errorf("case %d: empty render", i)
		}
		// The intended query must have an SLCA below the root (it was
		// sampled from one entity subtree).
		lists := make([]*index.List, len(cs.Intended))
		ok := true
		for j, k := range cs.Intended {
			l, err := ix.List(k)
			if err != nil {
				t.Fatal(err)
			}
			if l.Len() == 0 {
				ok = false
			}
			lists[j] = l
		}
		if !ok {
			t.Errorf("case %d: intended term missing from data: %v", i, cs.Intended)
			continue
		}
		res := slca.Compute(slca.AlgoScanEager, lists)
		deep := false
		for _, id := range res {
			if len(id) > 1 {
				deep = true
			}
		}
		if !deep {
			t.Errorf("case %d: intended query %v has only root results", i, cs.Intended)
		}
	}
}

func TestWorkloadOpsRestriction(t *testing.T) {
	doc, err := DBLPDocument(DBLPConfig{Authors: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range AllCorruptions {
		cases, err := Workload(doc, WorkloadConfig{Seed: 11, Queries: 10, Ops: []Corruption{op}})
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		for _, cs := range cases {
			for _, a := range cs.Applied {
				if a != op {
					t.Errorf("op %v produced corruption %v", op, a)
				}
			}
		}
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	doc, err := DBLPDocument(DBLPConfig{Authors: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Workload(doc, WorkloadConfig{Seed: 3, Queries: 15})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Workload(doc, WorkloadConfig{Seed: 3, Queries: 15})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("case %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestWorkloadErrorOnTinyDocument(t *testing.T) {
	doc, err := xmltree.ParseString("<r><a>x</a></r>", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Workload(doc, WorkloadConfig{Queries: 5}); err == nil {
		t.Error("expected error on entity-less document")
	}
}

func TestCorruptionString(t *testing.T) {
	for _, op := range AllCorruptions {
		if op.String() == "unknown" {
			t.Errorf("corruption %d unnamed", op)
		}
	}
	if Corruption(99).String() != "unknown" {
		t.Error("bogus corruption named")
	}
}

func TestAuctionShape(t *testing.T) {
	doc, err := AuctionDocument(AuctionConfig{Items: 30, People: 10, Auctions: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Tag != "site" {
		t.Fatalf("root = %s", doc.Root.Tag)
	}
	// Heterogeneous partitions: regions, people, auctions.
	parts := doc.Partitions()
	if len(parts) != 3 {
		t.Fatalf("partitions = %d", len(parts))
	}
	tags := map[string]bool{}
	for _, p := range parts {
		tags[p.Tag] = true
	}
	for _, want := range []string{"regions", "people", "auctions"} {
		if !tags[want] {
			t.Errorf("partition %s missing", want)
		}
	}
	ix := index.Build(doc)
	itemT, ok := doc.Types.ByPath("site/regions/region/item")
	if !ok {
		t.Fatal("item type missing")
	}
	if got := ix.NT(itemT); got != 30 {
		t.Errorf("items = %d", got)
	}
	personT, ok := doc.Types.ByPath("site/people/person")
	if !ok || ix.NT(personT) != 10 {
		t.Error("person type wrong")
	}
}

func TestAuctionDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := Auction(&a, AuctionConfig{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if err := Auction(&b, AuctionConfig{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed differs")
	}
}

func TestAuctionWorkloadAndSearchFor(t *testing.T) {
	doc, err := AuctionDocument(AuctionConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Workload sampling works on the heterogeneous schema too.
	cases, err := Workload(doc, WorkloadConfig{Seed: 2, Queries: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 10 {
		t.Fatalf("cases = %d", len(cases))
	}
	// Search-for inference picks an entity type for item-ish queries.
	ix := index.Build(doc)
	cands := searchfor.Infer(ix, []string{"vintage", "guitar"}, nil)
	if len(cands) == 0 {
		t.Fatal("no candidates on auction corpus")
	}
	if cands[0].Type.Tag == "site" {
		t.Error("root-adjacent type inferred as target")
	}
}
