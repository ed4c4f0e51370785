package refine_test

import (
	"math/rand"
	"testing"

	"xrefine/internal/index"
	"xrefine/internal/rank"
	"xrefine/internal/refine"
	"xrefine/internal/shard"
	"xrefine/internal/testutil"
	"xrefine/internal/xmltree"
)

// checkCoCounts holds the co-occurrence a walk counted to Index.CoDF over
// the monolith ix, for every pair of scan keywords and every type of L. It
// returns how many nonzero counts it compared under types of depth 1 and
// of depth 2 or more.
func checkCoCounts(t *testing.T, name string, in refine.Input, ix *index.Index, out *refine.TopKOutcome) (n [2]int) {
	t.Helper()
	ks := in.ScanKeywords()
	if len(ks) < 2 || len(in.Judge.Candidates()) == 0 {
		return n
	}
	for _, c := range in.Judge.Candidates() {
		for i, a := range ks {
			for _, b := range ks[i+1:] {
				want, err := ix.CoDF(a, b, c.Type)
				if err != nil {
					t.Fatal(err)
				}
				got, err := out.CoCounts.CoDF(b, a, c.Type)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got != want {
					t.Errorf("%s: walk counted CoDF(%s, %s, %s) = %d, Index.CoDF %d", name, a, b, c.Type.Path(), got, want)
				}
				if want > 0 {
					n[min(c.Type.Depth, 2)-1]++
				}
			}
		}
	}
	return n
}

// checkWalkCoCounts is checkCoCounts for a walk, whose scans stop
// counting once Q itself holds results: the engine then answers Q and
// ranks nothing, and the counts must refuse to be read.
func checkWalkCoCounts(t *testing.T, name string, in refine.Input, ix *index.Index, out *refine.TopKOutcome) [2]int {
	t.Helper()
	if !answersQ(in, out) {
		return checkCoCounts(t, name, in, ix, out)
	}
	if ks, l := in.ScanKeywords(), in.Judge.Candidates(); len(ks) >= 2 && len(l) > 0 {
		if _, err := out.CoCounts.CoDF(ks[0], ks[1], l[0].Type); err == nil {
			t.Errorf("%s query %v: the walk answered Q but its counts were read", name, in.Query)
		}
	}
	return [2]int{}
}

// answersQ reports whether the engine answers Q itself from out, as
// core.Engine does when Q surfaced with results, and ranks nothing.
func answersQ(in refine.Input, out *refine.TopKOutcome) bool {
	for _, it := range out.Candidates {
		if it.RQ.DSim == 0 && it.RQ.SameKeywords(in.Query) {
			return true
		}
	}
	return false
}

// TestCoCountsMatchCoDF: on the golden walk queries, the co-occurrence
// the lone walk counts when the engine ranks, and the sum of the shard
// scans' counts on every shard split when it ranks, equal Index.CoDF on
// the whole corpus.
func TestCoCountsMatchCoDF(t *testing.T) {
	c := walkCorpus(t)
	splits := shardSplits(t, c)
	var nonzero [2]int
	for _, terms := range walkQueries(t, c) {
		in := prepareInput(t, c.Index, terms)
		out, err := refine.PartitionTopK(in, 3)
		if err != nil {
			t.Fatal(err)
		}
		n := checkWalkCoCounts(t, "lone walk", in, c.Index, out)
		nonzero[0], nonzero[1] = nonzero[0]+n[0], nonzero[1]+n[1]
		for i, sp := range splits {
			out := shardWalk(t, in, 3, sp.ixs, i)
			checkWalkCoCounts(t, "shards "+sp.name, in, c.Index, out)
		}
	}
	if nonzero[0] == 0 || nonzero[1] == 0 {
		t.Fatalf("nonzero counts under types of depth 1 and deeper: %v; both kinds must be checked", nonzero)
	}
	t.Logf("nonzero counts compared in the lone walks: %d under depth-1 types, %d deeper", nonzero[0], nonzero[1])
}

// TestCoCountsRandomDocs: on the conformance oracle's random documents and
// queries, the lone walk's counts and a two-shard walk's summed counts
// equal Index.CoDF wherever the engine ranks.
func TestCoCountsRandomDocs(t *testing.T) {
	var nonzero [2]int
	for seed := int64(0); seed < 250; seed++ {
		r := rand.New(rand.NewSource(seed))
		doc, err := xmltree.ParseString(testutil.GenXML(r), nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ix := index.Build(doc)
		in := prepareInput(t, ix, testutil.GenTerms(r))
		out, err := refine.PartitionTopK(in, 3)
		if err != nil {
			t.Fatal(err)
		}
		n := checkWalkCoCounts(t, "lone walk", in, ix, out)
		nonzero[0], nonzero[1] = nonzero[0]+n[0], nonzero[1]+n[1]
		for _, mode := range []string{shard.ModeRange, shard.ModeHash} {
			subs, err := shard.SplitDocument(doc, 2, mode)
			if err != nil {
				t.Fatal(err)
			}
			ixs := []*index.Index{index.Build(subs[0]), index.Build(subs[1])}
			out := shardWalk(t, in, 3, ixs, int(seed))
			checkWalkCoCounts(t, "shards "+mode, in, ix, out)
		}
	}
	if nonzero[0] == 0 || nonzero[1] == 0 {
		t.Fatalf("nonzero counts under types of depth 1 and deeper: %v; both kinds must be checked", nonzero)
	}
	t.Logf("nonzero counts compared in the lone walks: %d under depth-1 types, %d deeper", nonzero[0], nonzero[1])
}

// TestRankAllocatesNothing: ranking a candidate over the walk's counts,
// Formula 10 with every guideline on, makes no allocation.
func TestRankAllocatesNothing(t *testing.T) {
	c := walkCorpus(t)
	m := rank.Default()
	ranked := 0
	for _, terms := range walkQueries(t, c) {
		in := prepareInput(t, c.Index, terms)
		out, err := refine.PartitionTopK(in, 3)
		if err != nil {
			t.Fatal(err)
		}
		if answersQ(in, out) {
			continue
		}
		cands := in.Judge.Candidates()
		for _, it := range out.Candidates {
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := m.Rank(c.Index, out.CoCounts, cands, terms, it.RQ.Keywords, it.RQ.DSim); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("ranking %v for %v: %.1f allocations", it.RQ.Keywords, terms, allocs)
			}
			ranked++
		}
	}
	if ranked == 0 {
		t.Fatal("no candidate to rank")
	}
}
