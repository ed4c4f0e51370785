package refine_test

import (
	"runtime"
	"strings"
	"testing"

	"xrefine/internal/refine"
)

// walkAllocCeiling bounds the mean allocations of one walk (one query's
// PartitionTopK) over the golden walk workload at k=3. Lower it
// as the walk gets cheaper; never raise it.
const walkAllocCeiling = 66

// TestWalkAllocs is the walk's allocation ratchet: passes over
// walkQueries on walkCorpus, after a warm pass has filled the lazily
// built per-query state (judge memo, resident lists). Each outcome is
// released, as the servers release theirs once encoded, so the walks
// reuse one warm state.
func TestWalkAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	c := walkCorpus(t)
	queries := walkQueries(t, c)
	inputs := make([]refine.Input, len(queries))
	for i, terms := range queries {
		inputs[i] = prepareInput(t, c.Index, terms)
	}
	walk := func() {
		for _, in := range inputs {
			out, err := refine.PartitionTopK(in, 3)
			if err != nil {
				t.Fatal(err)
			}
			out.Release()
		}
	}
	walk()
	got := testing.AllocsPerRun(3, walk) / float64(len(inputs))
	t.Logf("%.1f allocations per walk, mean over %d queries", got, len(inputs))
	if got > walkAllocCeiling {
		t.Errorf("walk allocated %.0f times, ceiling %d", got, walkAllocCeiling)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// hostileKSlack is the byte noise TestHostileKBytes tolerates between two
// walks that do the same work: map growth differs slightly from run to run.
const hostileKSlack = 1 << 10

// TestHostileKBytes: a request's K, up to the server's cap of 1<<20, sets
// only how many candidates the walk and its dynamic program may keep, and
// nothing is sized by it. On a golden query whose walk does the same work
// at k=10 and at k=1<<20, the two allocate the same bytes, within
// hostileKSlack. Each measured walk runs on a state a k=10 walk has just
// warmed and released, as a server releases it, so a buffer sized by k
// shows in every measured walk, whether release keeps the state or drops
// it past the retention cap.
func TestHostileKBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	// One P, as testing.AllocsPerRun measures: a sync.Pool item put back on
	// one P is not found by a Get on another, which then allocates anew.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := walkCorpus(t)
	queries := walkQueries(t, c)
	in := prepareInput(t, c.Index, queries[len(queries)-1])
	walk := func(k int) *refine.TopKOutcome {
		out, err := refine.PartitionTopK(in, k)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	bytes := func(k int) (uint64, string) {
		const runs = 5
		var total uint64
		var sig string
		for range runs {
			walk(10).Release()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			out := walk(k)
			runtime.ReadMemStats(&ms)
			total += ms.TotalAlloc - before
			sig = walkSig(out)
			out.Release()
		}
		return total / runs, sig
	}
	small, smallSig := bytes(10)
	huge, hugeSig := bytes(1 << 20)
	if smallSig != hugeSig {
		t.Fatal("the query's walk differs between k=10 and k=1<<20; pick one whose candidates fit 2K at k=10")
	}
	t.Logf("%d bytes per walk at k=10, %d at k=1<<20", small, huge)
	if huge > small+hostileKSlack {
		t.Errorf("k=1<<20 allocated %d bytes per walk, k=10 %d: more than %d apart", huge, small, hostileKSlack)
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
			out := shardWalk(t, in, 3, sp.ixs, i)
			check("shards "+sp.name, out)
		}
	}
}
