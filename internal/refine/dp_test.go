package refine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"xrefine/internal/rules"
)

func mustAdd(t testing.TB, s *rules.Set, r rules.Rule) {
	t.Helper()
	if err := s.Add(r); err != nil {
		t.Fatal(err)
	}
}

// optimalRQ is getOptimalRQ: the single cheapest refined query, or false
// when no non-empty refinement exists.
func optimalRQ(q []string, avail map[string]bool, rs *rules.Set) (RQ, bool) {
	out := TopRQs(q, avail, rs, 1)
	if len(out) == 0 {
		return RQ{}, false
	}
	return out[0], true
}

func avail(terms ...string) map[string]bool {
	m := make(map[string]bool, len(terms))
	for _, k := range terms {
		m[k] = true
	}
	return m
}

// Reconstruction of the paper's Example 3 with consistent numbers:
// Q = {www, article, machine, learning}, rules www -> world wide web (1)
// and article -> inproceedings (1), everything on the right available.
func TestOptimalRQExample3(t *testing.T) {
	rs := rules.NewSet(2)
	mustAdd(t, rs, rules.Rule{Op: rules.OpSubstitute, LHS: []string{"www"}, RHS: []string{"world", "wide", "web"}, Score: 1})
	mustAdd(t, rs, rules.Rule{Op: rules.OpSubstitute, LHS: []string{"article"}, RHS: []string{"inproceedings"}, Score: 1})
	q := []string{"www", "article", "machine", "learning"}
	av := avail("world", "wide", "web", "inproceedings", "machine", "learning")
	rq, ok := optimalRQ(q, av, rs)
	if !ok {
		t.Fatal("no RQ found")
	}
	if rq.DSim != 2 {
		t.Errorf("dSim = %v, want 2", rq.DSim)
	}
	want := NewRQ([]string{"world", "wide", "web", "inproceedings", "machine", "learning"}, 0)
	if rq.Key() != want.Key() {
		t.Errorf("RQ = %v, want %v", rq, want)
	}
}

// The paper's Example 4 setup: Q = {on, line, data, base} with two merge
// rules. With both merged terms available the optimum is two merges.
func TestOptimalRQMerges(t *testing.T) {
	rs := rules.NewSet(2)
	mustAdd(t, rs, rules.Rule{Op: rules.OpMerge, LHS: []string{"on", "line"}, RHS: []string{"online"}, Score: 1})
	mustAdd(t, rs, rules.Rule{Op: rules.OpMerge, LHS: []string{"data", "base"}, RHS: []string{"database"}, Score: 1})
	q := []string{"on", "line", "data", "base"}

	rq, ok := optimalRQ(q, avail("online", "database"), rs)
	if !ok || rq.DSim != 2 || rq.Key() != NewRQ([]string{"online", "database"}, 0).Key() {
		t.Errorf("both available: %v ok=%v", rq, ok)
	}
	// Only "online" available: merge once, delete data and base.
	rq2, ok := optimalRQ(q, avail("online"), rs)
	if !ok || rq2.DSim != 5 || rq2.Key() != NewRQ([]string{"online"}, 0).Key() {
		t.Errorf("online only: %v (dSim %v) ok=%v", rq2, rq2.DSim, ok)
	}
	// Partial original terms available: keep them, delete the rest
	// ({line, base} with two deletions, the paper's first candidate).
	rq3, ok := optimalRQ(q, avail("line", "base"), rs)
	if !ok || rq3.DSim != 4 || rq3.Key() != NewRQ([]string{"line", "base"}, 0).Key() {
		t.Errorf("line+base: %v (dSim %v) ok=%v", rq3, rq3.DSim, ok)
	}
}

func TestOptimalRQKeepIsFree(t *testing.T) {
	rs := rules.NewSet(2)
	q := []string{"a", "b"}
	rq, ok := optimalRQ(q, avail("a", "b"), rs)
	if !ok || rq.DSim != 0 || rq.Key() != NewRQ(q, 0).Key() {
		t.Errorf("fully available query must refine to itself at cost 0: %v", rq)
	}
}

func TestOptimalRQNothingAvailable(t *testing.T) {
	rs := rules.NewSet(2)
	if _, ok := optimalRQ([]string{"a", "b"}, avail(), rs); ok {
		t.Error("no keywords available must yield no RQ")
	}
	if _, ok := optimalRQ(nil, avail("a"), rs); ok {
		t.Error("empty query must yield no RQ")
	}
}

func TestTopRQsDistinctAndOrdered(t *testing.T) {
	rs := rules.NewSet(2)
	mustAdd(t, rs, rules.Rule{Op: rules.OpSubstitute, LHS: []string{"a"}, RHS: []string{"x"}, Score: 1})
	mustAdd(t, rs, rules.Rule{Op: rules.OpSubstitute, LHS: []string{"a"}, RHS: []string{"y"}, Score: 1.5})
	q := []string{"a", "b"}
	got := TopRQs(q, avail("x", "y", "b"), rs, 5)
	if len(got) < 3 {
		t.Fatalf("TopRQs = %v", got)
	}
	seen := map[string]bool{}
	for i, rq := range got {
		if len(rq.Keywords) == 0 {
			t.Error("empty RQ emitted")
		}
		if seen[rq.Key()] {
			t.Errorf("duplicate RQ %v", rq)
		}
		seen[rq.Key()] = true
		if i > 0 && got[i-1].DSim > rq.DSim {
			t.Error("not sorted by dissimilarity")
		}
	}
	// best: substitute a->x, keep b => dSim 1
	if got[0].DSim != 1 || got[0].Key() != NewRQ([]string{"x", "b"}, 0).Key() {
		t.Errorf("best = %v", got[0])
	}
}

// Exhaustive reference: enumerate every refinement sequence (delete / keep
// / rule at each position) without pruning, min cost per distinct final
// keyword set.
func bruteRQs(q []string, av map[string]bool, rs *rules.Set) map[string]float64 {
	best := map[string]float64{}
	var rec func(i int, cost float64, keys []string)
	rec = func(i int, cost float64, keys []string) {
		if i == len(q) {
			if len(keys) == 0 {
				return
			}
			k := NewRQ(keys, 0).Key()
			if old, ok := best[k]; !ok || cost < old {
				best[k] = cost
			}
			return
		}
		// delete
		rec(i+1, cost+rs.DeleteCost, keys)
		// keep
		if av[q[i]] {
			rec(i+1, cost, append(append([]string(nil), keys...), q[i]))
		}
		// rules ending anywhere: a rule consumes q[i..i+n)
		for _, r := range rs.Rules() {
			n := len(r.LHS)
			if i+n > len(q) {
				continue
			}
			match := true
			for j := 0; j < n; j++ {
				if q[i+j] != r.LHS[j] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			ok := true
			for _, k := range r.RHS {
				if !av[k] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			rec(i+n, cost+r.Score, append(append([]string(nil), keys...), r.RHS...))
		}
	}
	rec(0, 0, nil)
	return best
}

// Property: OptimalRQ matches the exhaustive minimum on random instances,
// and every TopRQs entry carries its exact minimal cost.
func TestPropertyDPAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	vocab := []string{"a", "b", "c", "d", "x", "y", "z", "w"}
	for trial := 0; trial < 300; trial++ {
		qLen := 1 + r.Intn(4)
		q := make([]string, qLen)
		for i := range q {
			q[i] = vocab[r.Intn(4)] // query terms from {a,b,c,d}
		}
		rs := rules.NewSet(2)
		nRules := r.Intn(5)
		for i := 0; i < nRules; i++ {
			lhsLen := 1 + r.Intn(2)
			lhs := make([]string, lhsLen)
			for j := range lhs {
				lhs[j] = vocab[r.Intn(4)]
			}
			rhsLen := 1 + r.Intn(2)
			rhs := make([]string, rhsLen)
			for j := range rhs {
				rhs[j] = vocab[4+r.Intn(4)] // targets from {x,y,z,w}
			}
			score := float64(1 + r.Intn(3))
			// Add may reject duplicates/identities; that is fine.
			_ = rs.Add(rules.Rule{Op: rules.OpSubstitute, LHS: lhs, RHS: rhs, Score: score})
		}
		av := map[string]bool{}
		for _, v := range vocab {
			if r.Intn(2) == 0 {
				av[v] = true
			}
		}
		want := bruteRQs(q, av, rs)
		wantMin := math.Inf(1)
		for _, c := range want {
			if c < wantMin {
				wantMin = c
			}
		}
		got, ok := optimalRQ(q, av, rs)
		if math.IsInf(wantMin, 1) {
			if ok {
				t.Fatalf("trial %d: expected no RQ, got %v", trial, got)
			}
			continue
		}
		if !ok {
			t.Fatalf("trial %d: expected RQ with cost %v, got none (q=%v)", trial, wantMin, q)
		}
		if got.DSim != wantMin {
			t.Fatalf("trial %d: OptimalRQ dSim = %v, brute min = %v (q=%v rules=%v avail=%v)",
				trial, got.DSim, wantMin, q, rs.Rules(), av)
		}
		if want[got.Key()] != got.DSim {
			t.Fatalf("trial %d: reported RQ %v has true cost %v", trial, got, want[got.Key()])
		}
		// Every TopRQs entry must carry its exact per-set minimum.
		for _, rq := range TopRQs(q, av, rs, 6) {
			if c, ok := want[rq.Key()]; !ok || c != rq.DSim {
				t.Fatalf("trial %d: TopRQs entry %v has true cost %v (ok=%v)", trial, rq, c, ok)
			}
		}
	}
}

func TestSortedList(t *testing.T) {
	l := NewSortedList(3)
	if l.Full() || !math.IsInf(l.Worst(), 1) {
		t.Fatal("fresh list should be empty with infinite worst")
	}
	a := NewRQ([]string{"a"}, 3)
	b := NewRQ([]string{"b"}, 1)
	c := NewRQ([]string{"c"}, 2)
	d := NewRQ([]string{"d"}, 5)
	e := NewRQ([]string{"e"}, 0.5)
	for _, rq := range []RQ{a, b, c} {
		if l.Insert(rq, nil) == nil {
			t.Fatalf("insert %v failed", rq)
		}
	}
	if !l.Full() || l.Worst() != 3 {
		t.Fatalf("worst = %v", l.Worst())
	}
	// d does not qualify.
	if l.Qualifies(d.DSim, d.Key()) || l.Insert(d, nil) != nil {
		t.Error("worse candidate admitted")
	}
	// e evicts a.
	if l.Insert(e, nil) == nil {
		t.Fatal("better candidate rejected")
	}
	if l.Has(a) != nil {
		t.Error("evicted candidate still present")
	}
	items := l.Items()
	if len(items) != 3 || items[0].RQ.Key() != e.Key() || items[2].RQ.Key() != c.Key() {
		t.Fatalf("order = %v", items)
	}
	// duplicate insert returns existing item
	it := l.Insert(e, []Match{{}})
	if it == nil || it != l.Has(e) || len(it.Results) != 0 {
		t.Error("duplicate insert must return the existing unchanged item")
	}
}

func TestSortedListCapOne(t *testing.T) {
	l := NewSortedList(0) // clamps to 1
	l.Insert(NewRQ([]string{"a"}, 2), nil)
	if it := l.Insert(NewRQ([]string{"b"}, 1), nil); it == nil {
		t.Fatal("better candidate rejected at cap 1")
	}
	if l.Len() != 1 || l.Items()[0].RQ.Keywords[0] != "b" {
		t.Fatal("eviction at cap 1 broken")
	}
	// Inserting a worse one into a full cap-1 list must return nil.
	if it := l.Insert(NewRQ([]string{"c"}, 9), nil); it != nil {
		t.Fatal("worse candidate admitted at cap 1")
	}
}

func TestRQBasics(t *testing.T) {
	r := NewRQ([]string{"b", "a", "b"}, 1.5)
	if len(r.Keywords) != 2 || r.Keywords[0] != "a" {
		t.Errorf("canonicalization failed: %v", r.Keywords)
	}
	if !r.SameKeywords([]string{"a", "b"}) || r.SameKeywords([]string{"a"}) {
		t.Error("SameKeywords broken")
	}
	if r.String() != "{a, b}" {
		t.Errorf("String = %q", r.String())
	}
}

// TestSameKeywords: SameKeywords agrees with the key comparison it
// replaced on random keyword sets and term lists with duplicates and any
// order, and allocates nothing.
func TestSameKeywords(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	vocab := []string{"a", "ab", "b", "ba", "c"}
	draw := func() []string {
		out := make([]string, r.Intn(6))
		for i := range out {
			out[i] = vocab[r.Intn(len(vocab))]
		}
		return out
	}
	for trial := range 2000 {
		rq, terms := NewRQ(draw(), 0), draw()
		if trial%3 == 0 {
			terms = append(slices.Clone(rq.Keywords), rq.Keywords...)
			r.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
		}
		if got, want := rq.SameKeywords(terms), rq.Key() == NewRQ(terms, 0).Key(); got != want {
			t.Fatalf("%v.SameKeywords(%q) = %v, want %v", rq, terms, got, want)
		}
	}
	rq, terms := NewRQ([]string{"b", "a"}, 0), []string{"b", "a", "b"}
	if allocs := testing.AllocsPerRun(100, func() { rq.SameKeywords(terms) }); allocs != 0 {
		t.Errorf("SameKeywords allocated %v times", allocs)
	}
}

// Provenance: the cheapest refinement's steps must name exactly the
// operations that produced it.
func TestProvenanceSteps(t *testing.T) {
	rs := rules.NewSet(2)
	mustAdd(t, rs, rules.Rule{Op: rules.OpMerge, LHS: []string{"on", "line"}, RHS: []string{"online"}, Score: 1, Origin: "merge"})
	q := []string{"on", "line", "data"}
	// "online" available, "data" not: one merge + one deletion.
	rq, ok := optimalRQ(q, avail("online"), rs)
	if !ok {
		t.Fatal("no RQ")
	}
	if len(rq.Steps) != 2 {
		t.Fatalf("steps = %v", rq.Steps)
	}
	if rq.Steps[0].Rule == nil || rq.Steps[0].Rule.Origin != "merge" {
		t.Errorf("step 0 = %v, want the merge rule", rq.Steps[0])
	}
	if rq.Steps[1].Delete != "data" {
		t.Errorf("step 1 = %v, want delete data", rq.Steps[1])
	}
	// Kept keywords leave no step.
	rq2, _ := optimalRQ([]string{"a"}, avail("a"), rs)
	if len(rq2.Steps) != 0 {
		t.Errorf("kept-only query has steps: %v", rq2.Steps)
	}
	// Step rendering.
	if s := (Step{Delete: "x"}).String(); s != "delete x" {
		t.Errorf("delete step = %q", s)
	}
	if s := (Step{}).String(); s != "?" {
		t.Errorf("zero step = %q", s)
	}
}
