package narrow

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xrefine/internal/index"
	"xrefine/internal/searchfor"
	"xrefine/internal/xmltree"
)

// broadCorpus: "database" floods (every paper), narrower terms split it.
func broadCorpus(tb testing.TB) (*xmltree.Document, *index.Index) {
	tb.Helper()
	r := rand.New(rand.NewSource(6))
	topics := []string{"indexing", "transactions", "replication", "streams"}
	years := []int{2001, 2002, 2003}
	var b strings.Builder
	b.WriteString("<bib>")
	for a := 0; a < 40; a++ {
		b.WriteString("<author><publications>")
		for p := 0; p < 4; p++ {
			topic := topics[r.Intn(len(topics))]
			year := years[r.Intn(len(years))]
			fmt.Fprintf(&b, "<paper><title>database %s systems</title><year>%d</year></paper>", topic, year)
		}
		b.WriteString("</publications></author>")
	}
	b.WriteString("</bib>")
	doc, err := xmltree.ParseString(b.String(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return doc, index.Build(doc)
}

func judgeFor(ix *index.Index, terms ...string) *searchfor.Judge {
	return searchfor.NewJudge(searchfor.Infer(ix, terms, nil))
}

func TestNarrowFloodingQuery(t *testing.T) {
	doc, ix := broadCorpus(t)
	out, err := Narrow(context.Background(), doc, ix, []string{"database"}, judgeFor(ix, "database"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.TooBroad {
		t.Fatalf("query with %d results not flagged as broad", out.OriginalResults)
	}
	if out.OriginalResults < 100 {
		t.Fatalf("corpus sanity: only %d results", out.OriginalResults)
	}
	if len(out.Suggestions) == 0 {
		t.Fatal("no narrowing suggestions")
	}
	for i, s := range out.Suggestions {
		if len(s.Added) != 1 {
			t.Errorf("suggestion %d adds %d terms", i, len(s.Added))
		}
		if len(s.Results) == 0 || len(s.Results) >= out.OriginalResults {
			t.Errorf("suggestion %v does not narrow: %d results (was %d)",
				s.Keywords, len(s.Results), out.OriginalResults)
		}
		// The original keywords must survive in every suggestion.
		found := false
		for _, k := range s.Keywords {
			if k == "database" {
				found = true
			}
		}
		if !found {
			t.Errorf("suggestion %v dropped the original keyword", s.Keywords)
		}
		if i > 0 && out.Suggestions[i-1].Score < s.Score {
			t.Error("suggestions not sorted by score")
		}
	}
}

func TestNarrowPreciseQueryUntouched(t *testing.T) {
	doc, ix := broadCorpus(t)
	out, err := Narrow(context.Background(), doc, ix, []string{"database", "replication", "2001"},
		judgeFor(ix, "database", "replication", "2001"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.TooBroad || len(out.Suggestions) != 0 {
		t.Fatalf("precise query flagged: %+v", out)
	}
}

func TestNarrowThresholdOption(t *testing.T) {
	doc, ix := broadCorpus(t)
	// With a huge threshold even "database" is fine.
	out, err := Narrow(context.Background(), doc, ix, []string{"database"}, judgeFor(ix, "database"), &Options{MaxResults: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if out.TooBroad {
		t.Error("threshold ignored")
	}
	// With threshold 1 almost anything is broad.
	out2, err := Narrow(context.Background(), doc, ix, []string{"database"}, judgeFor(ix, "database"), &Options{MaxResults: 1, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !out2.TooBroad {
		t.Error("threshold 1 not applied")
	}
	if len(out2.Suggestions) > 2 {
		t.Errorf("TopK 2 returned %d suggestions", len(out2.Suggestions))
	}
}

func TestNarrowErrors(t *testing.T) {
	_, ix := broadCorpus(t)
	if _, err := Narrow(context.Background(), nil, ix, []string{"database"}, judgeFor(ix, "database"), nil); err != ErrNeedsDocument {
		t.Errorf("nil doc error = %v", err)
	}
	doc, _ := broadCorpus(t)
	if _, err := Narrow(context.Background(), doc, ix, nil, judgeFor(ix, "database"), nil); err == nil {
		t.Error("empty query accepted")
	}
}

func TestProximity(t *testing.T) {
	if proximity(10, 10) != 1 {
		t.Error("exact target should score 1")
	}
	if proximity(0, 10) != 0 {
		t.Error("zero results should score 0")
	}
	if proximity(5, 10) != proximity(20, 10) {
		t.Error("proximity should be symmetric in ratio")
	}
	if proximity(9, 10) <= proximity(100, 10) {
		t.Error("closer counts must score higher")
	}
}
