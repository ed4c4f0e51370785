package refine_test

import (
	"strings"
	"testing"

	"xrefine/internal/refine"
)

// walkAllocCeiling bounds the mean allocations of one walk (one query's
// PartitionTopK) over the golden walk workload at k=3. Lower it
// as the walk gets cheaper; never raise it.
const walkAllocCeiling = 962

// TestWalkAllocs is the walk's allocation ratchet: passes over
// walkQueries on walkCorpus, after a warm pass has filled the lazily
// built per-query state (judge memo, resident lists).
func TestWalkAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	c := walkCorpus(t)
	queries := walkQueries(t, c)
	inputs := make([]refine.Input, len(queries))
	for i, terms := range queries {
		inputs[i] = prepareInput(t, c.Index, terms)
	}
	walk := func() {
		for _, in := range inputs {
			if _, err := refine.PartitionTopK(in, 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	walk()
	got := testing.AllocsPerRun(3, walk) / float64(len(inputs))
	t.Logf("%.0f allocations per walk, mean over %d queries", got, len(inputs))
	if got > walkAllocCeiling {
		t.Errorf("walk allocated %.0f times, ceiling %d", got, walkAllocCeiling)
	}
}

// distinctMasks counts the distinct sets of scan keywords present in the
// partitions of the query's document, computed from the lists directly:
// the number of dynamic-program runs a walk that memoises the DP per
// keyword mask needs.
func distinctMasks(t testing.TB, in refine.Input) int {
	t.Helper()
	ks := in.ScanKeywords()
	present := map[string][]byte{}
	for col, kw := range ks {
		l, err := in.Index.List(kw)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range l.Postings() {
			pid, ok := p.ID.Partition()
			if !ok {
				continue
			}
			m := present[pid.String()]
			if m == nil {
				m = make([]byte, len(ks))
			}
			m[col] = 1
			present[pid.String()] = m
		}
	}
	masks := map[string]bool{}
	for _, m := range present {
		masks[string(m)] = true
	}
	return len(masks)
}

// TestDPRunsShared: without a budget the walk runs the dynamic program
// once per distinct keyword mask, lone or split into shards. Every scan of
// one walk — range- or hash-split shards — shares one memo; a memo per scan
// would run the DP again for each mask a second scan meets.
func TestDPRunsShared(t *testing.T) {
	c := walkCorpus(t)
	splits := shardSplits(t, c)
	queries := walkQueries(t, c)
	if testing.Short() {
		queries = queries[len(queries)-4:] // the frequent-term queries, with the most masks
	}
	for _, terms := range queries {
		in := prepareInput(t, c.Index, terms)
		want := distinctMasks(t, in)
		check := func(name string, out *refine.TopKOutcome) {
			t.Helper()
			if out.DPRuns != want {
				t.Errorf("query %s %s: %d DP runs, want %d (distinct masks)", strings.Join(terms, "+"), name, out.DPRuns, want)
			}
		}
		out, err := refine.PartitionTopK(in, 3)
		if err != nil {
			t.Fatal(err)
		}
		check("lone walk", out)
		for i, sp := range splits {
			out, _ := shardWalk(t, in, 3, sp.ixs, i)
			check("shards "+sp.name, out)
		}
	}
}
