package refine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xrefine/internal/index"
	"xrefine/internal/rules"
	"xrefine/internal/searchfor"
	"xrefine/internal/xmltree"
)

const fig1 = `
<bib>
  <author>
    <name>John Ben</name>
    <publications>
      <inproceedings>
        <title>online DBLP record</title>
        <year>2001</year>
      </inproceedings>
      <inproceedings>
        <title>online database systems</title>
        <year>2003</year>
      </inproceedings>
      <article>
        <title>keyword mining</title>
        <year>2003</year>
      </article>
    </publications>
  </author>
  <author>
    <name>Mary Lee</name>
    <publications>
      <inproceedings>
        <title>keyword search</title>
        <year>2005</year>
      </inproceedings>
    </publications>
    <hobby>swimming</hobby>
  </author>
</bib>`

type fixture struct {
	doc   *xmltree.Document
	ix    *index.Index
	judge *searchfor.Judge
}

func newFixture(t testing.TB, src string, judgeTerms []string) *fixture {
	t.Helper()
	doc, err := xmltree.ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	judge := searchfor.NewJudge(searchfor.Infer(ix, judgeTerms, nil))
	return &fixture{doc: doc, ix: ix, judge: judge}
}

func (f *fixture) input(t testing.TB, q []string, rs *rules.Set) Input {
	t.Helper()
	if rs == nil {
		rs = rules.NewSet(2)
	}
	return Input{Index: f.ix, Query: q, Rules: rs, Judge: f.judge}
}

func matchIDs(ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.ID.String()
	}
	return out
}

func TestPartitionTopK(t *testing.T) {
	f := newFixture(t, fig1, []string{"online", "database"})
	rs := rules.NewSet(2)
	mustAdd(t, rs, rules.Rule{Op: rules.OpMerge, LHS: []string{"on", "line"}, RHS: []string{"online"}, Score: 1})
	mustAdd(t, rs, rules.Rule{Op: rules.OpMerge, LHS: []string{"data", "base"}, RHS: []string{"database"}, Score: 1})
	out, err := PartitionTopK(f.input(t, []string{"on", "line", "data", "base"}, rs), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	best := out.Candidates[0]
	if best.RQ.DSim != 2 || best.RQ.Key() != NewRQ([]string{"online", "database"}, 0).Key() {
		t.Errorf("best candidate = %v (dSim %v)", best.RQ, best.RQ.DSim)
	}
	if got := strings.Join(matchIDs(best.Results), " "); got != "0.0.1.1.0" {
		t.Errorf("best results = %v", got)
	}
	for i := 1; i < len(out.Candidates); i++ {
		if out.Candidates[i-1].RQ.DSim > out.Candidates[i].RQ.DSim {
			t.Error("candidates not ordered by dissimilarity")
		}
	}
	if out.Partitions == 0 {
		t.Error("partition counter not maintained")
	}
}

// The original query must surface as the dSim-0 candidate when it has
// meaningful results — the adaptive "does Q need refinement" decision of
// the partition algorithm.
func TestPartitionDetectsSatisfiableQuery(t *testing.T) {
	f := newFixture(t, fig1, []string{"online", "database"})
	out, err := PartitionTopK(f.input(t, []string{"online", "database"}, nil), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	best := out.Candidates[0]
	if best.RQ.DSim != 0 || !best.RQ.SameKeywords([]string{"online", "database"}) {
		t.Fatalf("best = %v (dSim %v), want the original query at 0", best.RQ, best.RQ.DSim)
	}
	if got := strings.Join(matchIDs(best.Results), " "); got != "0.0.1.1.0" {
		t.Errorf("results = %v", got)
	}
}

func TestAlgorithmsOnEmptyQuery(t *testing.T) {
	f := newFixture(t, fig1, []string{"online"})
	out, err := PartitionTopK(f.input(t, nil, nil), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Candidates) != 0 {
		t.Error("empty query produced candidates")
	}
}

func TestOriginalBaseline(t *testing.T) {
	f := newFixture(t, fig1, []string{"online", "database"})
	res, err := Original(f.input(t, []string{"online", "database"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(matchIDs(res), " "); got != "0.0.1.1.0" {
		t.Errorf("original = %v", got)
	}
	// Unmatched keyword: empty.
	res2, err := Original(f.input(t, []string{"online", "zzz"}, nil))
	if err != nil || res2 != nil {
		t.Errorf("unmatched = %v, %v", res2, err)
	}
	// A done context stops it with the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := f.input(t, []string{"online", "database"}, nil)
	in.Budget = NewBudget(ctx, 0)
	if res3, err := Original(in); !errors.Is(err, context.Canceled) || res3 != nil {
		t.Errorf("canceled = %v, %v", res3, err)
	}
}

func BenchmarkPartitionTopK(b *testing.B) {
	f := newFixtureB(b)
	rs := rules.NewSet(2)
	rs.Add(rules.Rule{Op: rules.OpMerge, LHS: []string{"on", "line"}, RHS: []string{"online"}, Score: 1})
	rs.Add(rules.Rule{Op: rules.OpMerge, LHS: []string{"data", "base"}, RHS: []string{"database"}, Score: 1})
	in := Input{Index: f.ix, Query: []string{"on", "line", "data", "base"}, Rules: rs, Judge: f.judge}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PartitionTopK(in, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func newFixtureB(b *testing.B) *fixture {
	r := rand.New(rand.NewSource(4))
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; i < 500; i++ {
		sb.WriteString("<author><publications>")
		for j := 0; j < 3; j++ {
			fmt.Fprintf(&sb, "<paper><title>online database term%d</title><year>%d</year></paper>", r.Intn(40), 2000+r.Intn(8))
		}
		sb.WriteString("</publications></author>")
	}
	sb.WriteString("</bib>")
	doc, err := xmltree.ParseString(sb.String(), nil)
	if err != nil {
		b.Fatal(err)
	}
	ix := index.Build(doc)
	judge := searchfor.NewJudge(searchfor.Infer(ix, []string{"online", "database"}, nil))
	return &fixture{doc: doc, ix: ix, judge: judge}
}
