package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xrefine"
)

const testDoc = `
<bib>
  <author><publications>
    <paper><title>online database systems</title><year>2003</year></paper>
    <paper><title>efficient keyword search</title><year>2005</year></paper>
  </publications></author>
</bib>`

func testEngine(t *testing.T) (*xrefine.Engine, *xrefine.Document) {
	t.Helper()
	doc, err := xrefine.ParseXML(strings.NewReader(testDoc))
	if err != nil {
		t.Fatal(err)
	}
	return xrefine.NewFromDocument(doc, nil), doc
}

func TestAnswerDirectMatch(t *testing.T) {
	eng, doc := testEngine(t)
	var b strings.Builder
	answer(&b, eng, doc, "online database", 3, false)
	out := b.String()
	if !strings.Contains(out, "matches directly") {
		t.Errorf("output = %q", out)
	}
	if !strings.Contains(out, "online database systems") {
		t.Error("snippet missing")
	}
}

func TestAnswerRefinement(t *testing.T) {
	eng, doc := testEngine(t)
	var b strings.Builder
	answer(&b, eng, doc, "online databse", 3, false)
	out := b.String()
	if !strings.Contains(out, "no meaningful result") {
		t.Errorf("output = %q", out)
	}
	if !strings.Contains(out, "database") || !strings.Contains(out, "dSim=1.0") {
		t.Errorf("refinement missing: %q", out)
	}
	if !strings.Contains(out, "via: databse ->substitute database") {
		t.Errorf("provenance missing: %q", out)
	}
}

func TestAnswerHopeless(t *testing.T) {
	eng, doc := testEngine(t)
	var b strings.Builder
	answer(&b, eng, doc, "zzz qqq", 3, false)
	if !strings.Contains(b.String(), "(none found)") {
		t.Errorf("output = %q", b.String())
	}
}

func TestAnswerError(t *testing.T) {
	eng, doc := testEngine(t)
	var b strings.Builder
	answer(&b, eng, doc, "   ", 3, false)
	if !strings.Contains(b.String(), "error:") {
		t.Errorf("output = %q", b.String())
	}
}

func TestAnswerExplainTrace(t *testing.T) {
	eng, doc := testEngine(t)
	var b strings.Builder
	answer(&b, eng, doc, "online databse", 3, true)
	out := b.String()
	if !strings.Contains(out, "trace:") {
		t.Errorf("-explain output missing trace header: %q", out)
	}
	for _, span := range []string{"query", "tokenize", "refine:"} {
		if !strings.Contains(out, span) {
			t.Errorf("trace missing %q span:\n%s", span, out)
		}
	}
}

func TestTokenizeArg(t *testing.T) {
	got := tokenizeArg("On-Line, DATA")
	if len(got) != 2 || got[0] != "online" || got[1] != "data" {
		t.Errorf("tokenizeArg = %v", got)
	}
}

func TestRunBatch(t *testing.T) {
	eng, _ := testEngine(t)
	in := strings.NewReader(`
# comment line
online database
online databse
zzz qqq

`)
	var out strings.Builder
	if err := runBatch(&out, eng, in, 3); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "online database\tfalse\t") {
		t.Errorf("direct line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "online databse\ttrue\t") || !strings.Contains(lines[1], "database online") {
		t.Errorf("refined line = %q", lines[1])
	}
	if !strings.Contains(lines[2], "true") {
		t.Errorf("hopeless line = %q", lines[2])
	}
}

func TestExplain(t *testing.T) {
	eng, _ := testEngine(t)
	var out strings.Builder
	if err := explain(&out, eng, "online databse", 3); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"needs refinement: true",
		"rules derived",
		"[spelling]",
		"search-for candidates",
		"ranked queries:",
		"via databse ->substitute database",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("explain output missing %q:\n%s", want, s)
		}
	}
}

func TestApplyBatch(t *testing.T) {
	dir := t.TempDir()
	kv := filepath.Join(dir, "d.kv")
	batch := filepath.Join(dir, "updates.txt")

	eng, doc := testEngine(t)
	_ = doc
	store, err := xrefine.OpenStore(kv, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveIndexWithDocument(store); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	ops := `# one insert, one delete
{"op":"insert","parent":"0","xml":"<author><publications><paper><title>applied sentinel paper</title></paper></publications></author>"}
{"op":"delete","target":"0.0.0.0"}
`
	if err := os.WriteFile(batch, []byte(ops), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := applyBatch(&out, kv, batch); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "epoch 1: 1 insert op(s), 1 delete op(s)") {
		t.Errorf("apply output = %q", out.String())
	}

	// The committed epoch answers queries for the inserted content.
	store2, err := xrefine.OpenStore(kv, true)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	eng2, err := xrefine.OpenIndex(store2, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng2.QueryTermsCtx(context.Background(), xrefine.Tokenize("applied sentinel"), xrefine.StrategyPartition, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.NeedRefine {
		t.Error("applied batch not visible after reopen")
	}
}

func TestNarrowQuery(t *testing.T) {
	// A corpus where "paper" floods.
	var b strings.Builder
	b.WriteString("<bib>")
	for i := 0; i < 30; i++ {
		b.WriteString("<author><publications>")
		fmt.Fprintf(&b, "<paper><title>database topic%d</title></paper>", i%3)
		b.WriteString("</publications></author>")
	}
	b.WriteString("</bib>")
	doc, err := xrefine.ParseXML(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	eng := xrefine.NewFromDocument(doc, nil)
	var out strings.Builder
	if err := narrowQuery(&out, eng, "database", 5, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "too broad") {
		t.Errorf("output = %q", out.String())
	}
	out.Reset()
	if err := narrowQuery(&out, eng, "database topic1", 500, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "specific enough") {
		t.Errorf("output = %q", out.String())
	}
}
