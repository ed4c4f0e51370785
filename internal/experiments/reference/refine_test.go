package reference

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"xrefine/internal/index"
	"xrefine/internal/refine"
	"xrefine/internal/rules"
	"xrefine/internal/searchfor"
	"xrefine/internal/slca"
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

func (f *fixture) input(t testing.TB, q []string, rs *rules.Set) refine.Input {
	t.Helper()
	if rs == nil {
		rs = rules.NewSet(2)
	}
	return refine.Input{Index: f.ix, Query: q, Rules: rs, Judge: f.judge}
}

func matchIDs(ms []refine.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.ID.String()
	}
	return out
}

func mustAdd(t testing.TB, s *rules.Set, r rules.Rule) {
	t.Helper()
	if err := s.Add(r); err != nil {
		t.Fatal(err)
	}
}

func avail(terms ...string) map[string]bool {
	m := make(map[string]bool, len(terms))
	for _, k := range terms {
		m[k] = true
	}
	return m
}

func TestStackNoRefinementNeeded(t *testing.T) {
	f := newFixture(t, fig1, []string{"online", "database"})
	out, err := StackRefine(f.input(t, []string{"online", "database"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.NeedRefine {
		t.Fatal("satisfiable meaningful query flagged for refinement")
	}
	if got := strings.Join(matchIDs(out.Original), " "); got != "0.0.1.1.0" {
		t.Errorf("original results = %v", got)
	}
}

func TestStackRefinesMerges(t *testing.T) {
	f := newFixture(t, fig1, []string{"online", "database"})
	rs := rules.NewSet(2)
	mustAdd(t, rs, rules.Rule{Op: rules.OpMerge, LHS: []string{"on", "line"}, RHS: []string{"online"}, Score: 1})
	mustAdd(t, rs, rules.Rule{Op: rules.OpMerge, LHS: []string{"data", "base"}, RHS: []string{"database"}, Score: 1})
	out, err := StackRefine(f.input(t, []string{"on", "line", "data", "base"}, rs))
	if err != nil {
		t.Fatal(err)
	}
	if !out.NeedRefine || !out.Found {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Best.DSim != 2 || out.Best.Key() != refine.NewRQ([]string{"online", "database"}, 0).Key() {
		t.Errorf("best = %v (dSim %v)", out.Best, out.Best.DSim)
	}
	if got := strings.Join(matchIDs(out.BestResults), " "); got != "0.0.1.1.0" {
		t.Errorf("best results = %v", got)
	}
}

// Q covered only at the root (across partitions): meaningless, so the
// query needs refinement; the best refinements delete one side.
func TestStackRootOnlyResultForcesRefinement(t *testing.T) {
	f := newFixture(t, fig1, []string{"john", "swimming"})
	out, err := StackRefine(f.input(t, []string{"john", "swimming"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !out.NeedRefine {
		t.Fatal("root-only query must need refinement")
	}
	if !out.Found || out.Best.DSim != 2 || len(out.Best.Keywords) != 1 {
		t.Fatalf("best = %v (dSim %v) found=%v", out.Best, out.Best.DSim, out.Found)
	}
}

func TestStackUnmatchableQuery(t *testing.T) {
	f := newFixture(t, fig1, []string{"online"})
	out, err := StackRefine(f.input(t, []string{"zzz", "qqq"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !out.NeedRefine || out.Found {
		t.Fatalf("nothing matchable: %+v", out)
	}
}

func TestSLETopK(t *testing.T) {
	f := newFixture(t, fig1, []string{"online", "database"})
	rs := rules.NewSet(2)
	mustAdd(t, rs, rules.Rule{Op: rules.OpMerge, LHS: []string{"on", "line"}, RHS: []string{"online"}, Score: 1})
	mustAdd(t, rs, rules.Rule{Op: rules.OpMerge, LHS: []string{"data", "base"}, RHS: []string{"database"}, Score: 1})
	out, err := ShortListEager(f.input(t, []string{"on", "line", "data", "base"}, rs), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	best := out.Candidates[0]
	if best.RQ.DSim != 2 || best.RQ.Key() != refine.NewRQ([]string{"online", "database"}, 0).Key() {
		t.Errorf("best = %v (dSim %v)", best.RQ, best.RQ.DSim)
	}
	if got := strings.Join(matchIDs(best.Results), " "); got != "0.0.1.1.0" {
		t.Errorf("results = %v", got)
	}
}

func TestAlgorithmsOnEmptyQuery(t *testing.T) {
	f := newFixture(t, fig1, []string{"online"})
	for name, run := range map[string]func() error{
		"stack": func() error { _, err := StackRefine(f.input(t, nil, nil)); return err },
		"sle": func() error {
			out, err := ShortListEager(f.input(t, nil, nil), 2)
			if err == nil && len(out.Candidates) != 0 {
				return fmt.Errorf("empty query produced candidates")
			}
			return err
		},
	} {
		if err := run(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// --- property tests against brute force ---

// bruteBest finds, by walking every meaningful node, the minimum
// dissimilarity of a refined query with at least one meaningful SLCA.
func bruteBest(f *fixture, q []string, rs *rules.Set) (float64, bool) {
	best := math.Inf(1)
	found := false
	f.doc.Walk(func(n *xmltree.Node) bool {
		if !f.judge.Meaningful(n.Type) {
			return true
		}
		av := map[string]bool{}
		var rec func(m *xmltree.Node)
		rec = func(m *xmltree.Node) {
			for _, w := range m.Terms() {
				av[w] = true
			}
			for _, c := range m.Children {
				rec(c)
			}
		}
		rec(n)
		if rqs := refine.TopRQs(q, av, rs, 1); len(rqs) > 0 {
			found = true
			best = min(best, rqs[0].DSim)
		}
		return true
	})
	return best, found
}

// bruteQHasMeaningfulSLCA checks Definition 3.4 directly.
func bruteQHasMeaningfulSLCA(t *testing.T, f *fixture, q []string) bool {
	for _, id := range Naive(postingLists(t, f.ix, q...)) {
		n, ok := f.doc.NodeByID(id)
		if ok && f.judge.Meaningful(n.Type) {
			return true
		}
	}
	return false
}

func randomTestDoc(r *rand.Rand) string {
	words := []string{"w0", "w1", "w2", "w3", "w4", "w5"}
	var b strings.Builder
	b.WriteString("<lib>")
	items := 2 + r.Intn(3)
	for i := 0; i < items; i++ {
		b.WriteString("<item>")
		entries := 1 + r.Intn(3)
		for j := 0; j < entries; j++ {
			b.WriteString("<entry><txt>")
			n := 1 + r.Intn(3)
			for w := 0; w < n; w++ {
				b.WriteString(words[r.Intn(len(words))] + " ")
			}
			b.WriteString("</txt></entry>")
		}
		b.WriteString("</item>")
	}
	b.WriteString("</lib>")
	return b.String()
}

func TestPropertyStackMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 150; trial++ {
		src := randomTestDoc(r)
		f := newFixture(t, src, []string{"w0", "w1", "w2"})
		q := make([]string, 1+r.Intn(3))
		for i := range q {
			q[i] = fmt.Sprintf("w%d", r.Intn(8)) // w6, w7 never occur
		}
		rs := rules.NewSet(2)
		_ = rs.Add(rules.Rule{Op: rules.OpSubstitute, LHS: []string{"w6"}, RHS: []string{"w0"}, Score: 1})
		_ = rs.Add(rules.Rule{Op: rules.OpSubstitute, LHS: []string{"w7"}, RHS: []string{"w1", "w2"}, Score: 2})
		in := f.input(t, q, rs)
		out, err := StackRefine(in)
		if err != nil {
			t.Fatal(err)
		}
		wantNeed := !bruteQHasMeaningfulSLCA(t, f, q)
		if out.NeedRefine != wantNeed {
			t.Fatalf("trial %d: NeedRefine = %v, want %v (q=%v)\ndoc: %s", trial, out.NeedRefine, wantNeed, q, src)
		}
		if !out.NeedRefine {
			if len(out.Original) == 0 {
				t.Fatalf("trial %d: no original results despite satisfiable query", trial)
			}
			continue
		}
		best, found := bruteBest(f, q, rs)
		if out.Found != found {
			t.Fatalf("trial %d: Found = %v, want %v (q=%v)", trial, out.Found, found, q)
		}
		if !found {
			continue
		}
		if out.Best.DSim != best {
			t.Fatalf("trial %d: stack best dSim = %v, brute = %v (q=%v, best=%v)\ndoc: %s",
				trial, out.Best.DSim, best, q, out.Best, src)
		}
		// Every reported result must be a meaningful SLCA of Best.
		slcaSet := map[string]bool{}
		for _, id := range Naive(postingLists(t, f.ix, out.Best.Keywords...)) {
			slcaSet[id.String()] = true
		}
		if len(out.BestResults) == 0 {
			t.Fatalf("trial %d: optimal RQ without results", trial)
		}
		for _, m := range out.BestResults {
			if !slcaSet[m.ID.String()] {
				t.Fatalf("trial %d: reported node %s is not an SLCA of %v", trial, m.ID, out.Best)
			}
			if !f.judge.Meaningful(m.Type) {
				t.Fatalf("trial %d: reported node %s not meaningful", trial, m.ID)
			}
		}
	}
}

func TestPropertyPartitionAndSLEMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(314))
	for trial := 0; trial < 120; trial++ {
		src := randomTestDoc(r)
		f := newFixture(t, src, []string{"w0", "w1", "w2"})
		q := make([]string, 1+r.Intn(3))
		for i := range q {
			q[i] = fmt.Sprintf("w%d", r.Intn(8))
		}
		rs := rules.NewSet(2)
		_ = rs.Add(rules.Rule{Op: rules.OpSubstitute, LHS: []string{"w6"}, RHS: []string{"w0"}, Score: 1})
		_ = rs.Add(rules.Rule{Op: rules.OpSubstitute, LHS: []string{"w7"}, RHS: []string{"w1", "w2"}, Score: 2})
		in := f.input(t, q, rs)
		best, found := bruteBest(f, q, rs)

		pOut, err := refine.PartitionTopK(in, 3)
		if err != nil {
			t.Fatal(err)
		}
		sOut, err := ShortListEager(in, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			if len(pOut.Candidates) != 0 || len(sOut.Candidates) != 0 {
				t.Fatalf("trial %d: candidates despite no meaningful refinement (q=%v)", trial, q)
			}
			continue
		}
		if len(pOut.Candidates) == 0 || pOut.Candidates[0].RQ.DSim != best {
			t.Fatalf("trial %d: partition best = %+v, brute = %v (q=%v)\ndoc: %s",
				trial, pOut.Candidates, best, q, src)
		}
		if len(sOut.Candidates) == 0 || sOut.Candidates[0].RQ.DSim != best {
			t.Fatalf("trial %d: SLE best = %+v, brute = %v (q=%v)\ndoc: %s",
				trial, sOut.Candidates, best, q, src)
		}
		// Validity of every candidate's results.
		for algo, out := range map[string]*refine.TopKOutcome{"partition": pOut, "sle": sOut} {
			for _, it := range out.Candidates {
				if len(it.Results) == 0 {
					t.Fatalf("trial %d: %s candidate %v without results", trial, algo, it.RQ)
				}
				slcaSet := map[string]bool{}
				for _, id := range Naive(postingLists(t, f.ix, it.RQ.Keywords...)) {
					slcaSet[id.String()] = true
				}
				for _, m := range it.Results {
					if !slcaSet[m.ID.String()] || !f.judge.Meaningful(m.Type) {
						t.Fatalf("trial %d: %s reported %s, not a meaningful SLCA of %v",
							trial, algo, m.ID, it.RQ)
					}
				}
			}
		}
	}
}

// TestPartitionSLCAAlgorithmOrthogonality checks Lemma 3 reference
// against served: for every refined query the partition walk returns, the
// four reference SLCA algorithms and the served scan-eager compute one set
// over the query's full lists, every served result lies in that set, and
// every served result is meaningful (Definition 3.4). The walk only ever
// runs scan-eager on partition windows, so this is what makes the choice
// of SLCA algorithm immaterial to its answers.
func TestPartitionSLCAAlgorithmOrthogonality(t *testing.T) {
	type query struct {
		f  *fixture
		q  []string
		rs *rules.Set
	}
	merges := rules.NewSet(2)
	mustAdd(t, merges, rules.Rule{Op: rules.OpMerge, LHS: []string{"on", "line"}, RHS: []string{"online"}, Score: 1})
	mustAdd(t, merges, rules.Rule{Op: rules.OpMerge, LHS: []string{"data", "base"}, RHS: []string{"database"}, Score: 1})
	f := newFixture(t, fig1, []string{"online", "database"})
	corpus := []query{
		{f, []string{"on", "line", "data", "base"}, merges},
		{f, []string{"online", "database"}, nil},
		{f, []string{"john", "swimming"}, nil},
		{f, []string{"keyword", "2003"}, nil},
	}
	r := rand.New(rand.NewSource(1618))
	for trial := 0; trial < 60; trial++ {
		rf := newFixture(t, randomTestDoc(r), []string{"w0", "w1", "w2"})
		q := make([]string, 1+r.Intn(3))
		for i := range q {
			q[i] = fmt.Sprintf("w%d", r.Intn(6))
		}
		corpus = append(corpus, query{rf, q, nil})
	}
	checked := 0
	for _, c := range corpus {
		out, err := refine.PartitionTopK(c.f.input(t, c.q, c.rs), 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range out.Candidates {
			ps := postingLists(t, c.f.ix, it.RQ.Keywords...)
			want := strings.Join(idsToStrings(slca.Compute(slca.AlgoScanEager, lists(t, c.f.ix, it.RQ.Keywords...))), " ")
			for name, algo := range algorithms {
				if got := strings.Join(idsToStrings(algo(ps)), " "); got != want {
					t.Fatalf("q=%v rq=%v: %s = %s, scan-eager = %s", c.q, it.RQ, name, got, want)
				}
			}
			set := " " + want + " "
			for _, m := range it.Results {
				if !strings.Contains(set, " "+m.ID.String()+" ") {
					t.Fatalf("q=%v rq=%v: served result %s is not an SLCA (%s)", c.q, it.RQ, m.ID, want)
				}
				if !c.f.judge.Meaningful(m.Type) {
					t.Fatalf("q=%v rq=%v: served result %s is not meaningful", c.q, it.RQ, m.ID)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("the corpus produced no served result to check")
	}
}

func TestMinDissimilarity(t *testing.T) {
	rs := rules.NewSet(2)
	if d, ok := minDissimilarity([]string{"a", "b"}, avail(), rs); !ok || d != 4 {
		t.Errorf("all-deleted bound = %v, %v, want 4", d, ok)
	}
	if d, ok := minDissimilarity([]string{"a", "b"}, avail("a"), rs); !ok || d != 2 {
		t.Errorf("one kept = %v, %v, want 2", d, ok)
	}
	if _, ok := minDissimilarity(nil, avail("a"), rs); ok {
		t.Error("empty query should report false")
	}
}

func BenchmarkStackRefine(b *testing.B) {
	f := newFixtureB(b)
	rs := rules.NewSet(2)
	rs.Add(rules.Rule{Op: rules.OpMerge, LHS: []string{"on", "line"}, RHS: []string{"online"}, Score: 1})
	rs.Add(rules.Rule{Op: rules.OpMerge, LHS: []string{"data", "base"}, RHS: []string{"database"}, Score: 1})
	in := refine.Input{Index: f.ix, Query: []string{"on", "line", "data", "base"}, Rules: rs, Judge: f.judge}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StackRefine(in); err != nil {
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
