package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xrefine/internal/experiments/reference"
	"xrefine/internal/narrow"
	"xrefine/internal/tokenize"
	"xrefine/internal/xmltree"
)

// Degenerate document shapes: the engine must answer (possibly with
// nothing) and never panic or loop.

func engineFor(t *testing.T, src string) *Engine {
	t.Helper()
	doc, err := xmltree.ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewFromDocument(doc, nil)
}

// queryAll runs q through the served walk and both reference algorithms:
// short-list eager as an explorer, stack-refine over the prepared input.
func queryAll(t *testing.T, e *Engine, q string) {
	t.Helper()
	eng, in, _ := capturingEngine(e)
	terms := tokenize.Query(q)
	if _, err := queryTerms(eng, terms, 3); err != nil {
		t.Fatalf("partition on %q: %v", q, err)
	}
	if _, err := queryTerms(NewWithExplorer(e.Index(), nil, reference.ShortListEager), terms, 3); err != nil {
		t.Errorf("sle on %q: %v", q, err)
	}
	if _, err := reference.StackRefine(*in); err != nil {
		t.Errorf("stack on %q: %v", q, err)
	}
}

func TestSingleNodeDocument(t *testing.T) {
	e := engineFor(t, `<only>word</only>`)
	queryAll(t, e, "word")
	queryAll(t, e, "wrd")
	queryAll(t, e, "missing")
	resp, err := query(e, "word")
	if err != nil {
		t.Fatal(err)
	}
	// The only node is the root: never meaningful, so even a matching
	// query needs refinement — and no refinement can help.
	if !resp.NeedRefine {
		t.Error("root-only match must be flagged (Definition 3.3 excludes the root)")
	}
}

func TestFlatWideDocument(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&b, "<e>w%d</e>", i%7)
	}
	b.WriteString("</r>")
	e := engineFor(t, b.String())
	queryAll(t, e, "w0 w1")
	queryAll(t, e, "w0 nope")
}

func TestDeepChainDocument(t *testing.T) {
	depth := 120
	var b strings.Builder
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "<d%d>", i)
	}
	b.WriteString("needle")
	for i := depth - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "</d%d>", i)
	}
	e := engineFor(t, b.String())
	queryAll(t, e, "needle")
	queryAll(t, e, "needel") // typo at depth
}

func TestSinglePartitionDocument(t *testing.T) {
	e := engineFor(t, `<r><only><a>alpha beta</a><b>gamma</b></only></r>`)
	queryAll(t, e, "alpha gamma")
	resp, err := query(e, "alpha gamma")
	if err != nil {
		t.Fatal(err)
	}
	if resp.NeedRefine {
		// alpha and gamma co-occur under <only>, which should be an
		// inferred target.
		t.Errorf("single-partition co-occurrence flagged: %+v", resp)
	}
}

func TestNumericOnlyDocument(t *testing.T) {
	e := engineFor(t, `<r><n><v>2003</v></n><n><v>2004</v></n></r>`)
	queryAll(t, e, "2003")
	queryAll(t, e, "20033")
}

func TestRepeatedTermEverywhere(t *testing.T) {
	// One term occurs in every node: ImpK clamps to zero, dependence is
	// saturated — ranking must stay finite.
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 50; i++ {
		b.WriteString("<e>same same</e>")
	}
	b.WriteString("</r>")
	e := engineFor(t, b.String())
	resp, err := queryTerms(e, []string{"same", "asme"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range resp.Queries {
		if q.Score != q.Score || q.Score < 0 {
			t.Errorf("non-finite score %v for %v", q.Score, q.Keywords)
		}
	}
}

func TestNarrowOnDegenerate(t *testing.T) {
	e := engineFor(t, `<only>word</only>`)
	out, err := e.Narrow(context.Background(), "word", &narrow.Options{MaxResults: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Root-only results are not meaningful, so nothing to narrow.
	if out.TooBroad {
		t.Errorf("degenerate narrow outcome: %+v", out)
	}
}

func TestUnicodeContent(t *testing.T) {
	// Non-ASCII tags and values flow through tokenization, indexing and
	// refinement (spelling correction is ASCII-gated by the stemmer but
	// exact/synonym matching is not).
	e := engineFor(t, `<библиотека>
  <книга><название>базы данных</название><год>2003</год></книга>
  <книга><название>поиск ключевых слов</название><год>2005</год></книга>
</библиотека>`)
	resp, err := query(e, "базы данных")
	if err != nil {
		t.Fatal(err)
	}
	if resp.NeedRefine || len(resp.Queries[0].Results) == 0 {
		t.Errorf("unicode query failed: %+v", resp)
	}
	// Deletion-based refinement still works for over-restriction.
	resp2, err := query(e, "базы данных поиск")
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.NeedRefine || len(resp2.Queries) == 0 {
		t.Errorf("unicode refinement failed: %+v", resp2)
	}
}

func TestMixedScriptQuery(t *testing.T) {
	e := engineFor(t, `<r><doc><t>xml データベース search</t></doc><doc><t>other words</t></doc></r>`)
	resp, err := query(e, "xml データベース")
	if err != nil {
		t.Fatal(err)
	}
	if resp.NeedRefine {
		t.Errorf("mixed-script co-occurrence flagged: %+v", resp)
	}
}
