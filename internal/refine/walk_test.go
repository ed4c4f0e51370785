package refine_test

// The one walk's contract: for any query, corpus and K, every split of the
// walk — one range, N ranges of one index on the pool, the same document
// split into shards whose scans are merged — returns exactly the
// candidates of the one-range walk: same keyword sets, same
// dissimilarities, and Results concatenated in the same document order.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xrefine/internal/experiments"
	"xrefine/internal/index"
	"xrefine/internal/refine"
	"xrefine/internal/shard"
)

// walkSig renders everything the engine consumes from a walk's outcome;
// two outcomes with equal signatures rank identically.
func walkSig(out *refine.TopKOutcome) string {
	var b strings.Builder
	for _, it := range out.Candidates {
		fmt.Fprintf(&b, "%s|%v|", strings.Join(it.RQ.Keywords, ","), it.RQ.DSim)
		for _, m := range it.Results {
			fmt.Fprintf(&b, "%s:%s;", m.ID, m.Type.Path())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// shardSplit is the corpus split into shards, one index per shard.
type shardSplit struct {
	name string
	ixs  []*index.Index
}

// shardSplits splits the corpus into {2, 4} shards, range and hash, the
// way the shard router's stores are written.
func shardSplits(t testing.TB, c *experiments.Corpus) []shardSplit {
	t.Helper()
	var out []shardSplit
	for _, mode := range []string{shard.ModeRange, shard.ModeHash} {
		for _, n := range []int{2, 4} {
			subs, err := shard.SplitDocument(c.Doc, n, mode)
			if err != nil {
				t.Fatal(err)
			}
			sp := shardSplit{name: fmt.Sprintf("%s/%d", mode, n)}
			for _, sub := range subs {
				sp.ixs = append(sp.ixs, index.Build(sub))
			}
			out = append(out, sp)
		}
	}
	return out
}

// shardWalk runs the walk with each shard as a source and merges the scans
// passed in rotated order — the merge must not depend on it.
func shardWalk(t testing.TB, in refine.Input, k int, ixs []*index.Index, rotate int) *refine.TopKOutcome {
	t.Helper()
	ks := in.ScanKeywords()
	jobs := make([]refine.ScanJob, len(ixs))
	for i, ix := range ixs {
		jobs[i] = func(walk *refine.Walk) (*refine.Scan, error) {
			sin := in
			sin.Index = ix
			return refine.ScanShard(sin, k, ks, walk)
		}
	}
	scans, errs := refine.RunScans(in.Budget, len(jobs), jobs)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	r := rotate % len(scans)
	out, err := refine.MergeScans(in, k, append(scans[r:], scans[:r]...))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// diffWalk compares one query's one-range walk against ranged walks on
// each worker count and against the shard splits; it reports whether a
// ranged walk actually split.
func diffWalk(t *testing.T, c *experiments.Corpus, splits []shardSplit, terms []string, k int, workers ...int) (split bool) {
	t.Helper()
	in := prepareInput(t, c.Index, terms)
	one, err := refine.PartitionTopK(in, k)
	if err != nil {
		t.Fatalf("one range %v: %v", terms, err)
	}
	want := walkSig(one)
	check := func(name string, got *refine.TopKOutcome) {
		t.Helper()
		if s := walkSig(got); s != want {
			t.Errorf("query %v k=%d %s diverged\ngot:\n%s\none range:\n%s", terms, k, name, s, want)
		}
		if got.Partitions != one.Partitions {
			t.Errorf("query %v k=%d %s visited %d partitions, one range %d", terms, k, name, got.Partitions, one.Partitions)
		}
	}
	for _, w := range workers {
		in.Parallelism = w
		ranged, err := refine.PartitionTopK(in, k)
		if err != nil {
			t.Fatalf("ranged %v: %v", terms, err)
		}
		check(fmt.Sprintf("workers=%d", w), ranged)
		split = split || ranged.Workers > 1
	}
	in.Parallelism = 1
	for i, sp := range splits {
		check("shards "+sp.name, shardWalk(t, in, k, sp.ixs, i+k))
	}
	return split
}

// TestParallelPartitionMatchesSequential runs the generated workload plus
// frequent-term queries through every split of the walk for the grid
// k ∈ {1,3,10} × workers ∈ {2,4,8}, shards ∈ {2,4} × {range, hash}.
func TestParallelPartitionMatchesSequential(t *testing.T) {
	c := walkCorpus(t)
	splits := shardSplits(t, c)
	queries := walkQueries(t, c)
	engaged := 0
	for _, k := range []int{1, 3, 10} {
		for _, terms := range queries {
			if diffWalk(t, c, splits, terms, k, 2, 4, 8) {
				engaged++
			}
		}
	}
	if engaged == 0 {
		t.Fatal("no query split the walk into ranges; the differential proved nothing")
	}
	t.Logf("range split engaged on %d runs", engaged)
}

// TestParallelPartitionFuzzDifferential throws randomized queries, K and
// worker counts at every split of the walk. The seed is fixed for
// reproducibility.
func TestParallelPartitionFuzzDifferential(t *testing.T) {
	c := walkCorpus(t)
	splits := shardSplits(t, c)
	vocab := c.Index.Vocabulary()
	freq := frequentTerms(c, 12)
	rng := rand.New(rand.NewSource(7))
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		n := 2 + rng.Intn(3)
		terms := make([]string, 0, n)
		for j := 0; j < n; j++ {
			// Mix frequent terms (long lists, range splits) with uniform
			// vocabulary draws (short lists, absent partitions).
			if rng.Intn(2) == 0 {
				terms = append(terms, freq[rng.Intn(len(freq))])
			} else {
				terms = append(terms, vocab[rng.Intn(len(vocab))])
			}
		}
		if rng.Intn(4) == 0 {
			terms = append(terms, "databse") // spelling rule trigger
		}
		diffWalk(t, c, splits, terms, 1+rng.Intn(10), 2+rng.Intn(7))
	}
}

// TestConcurrentWalksShareLists runs whole walks from eight goroutines at
// once over one shared index — half on one scan, half split into ranges
// on a pool of eight — and holds every outcome to the sequential walk's.
// The walks share the resident lists and nothing else: each reads them
// through its own cursors and copies partitions into its own buffers, so
// under -race this proves no walk reads decode state another one writes.
func TestConcurrentWalksShareLists(t *testing.T) {
	c := walkCorpus(t)
	queries := walkQueries(t, c)
	queries = append(queries[:4:4], queries[len(queries)-4:]...) // four Table-VIII, four frequent-term
	inputs := make([]refine.Input, len(queries))
	want := make([]string, len(queries))
	for i, terms := range queries {
		inputs[i] = prepareInput(t, c.Index, terms)
		out, err := refine.PartitionTopK(inputs[i], 3)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = walkSig(out)
	}
	var wg sync.WaitGroup
	var split atomic.Bool
	errs := make(chan string, 8*len(queries))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range queries {
				in := inputs[(i+g)%len(inputs)]
				in.Parallelism = []int{1, 8}[g%2]
				out, err := refine.PartitionTopK(in, 3)
				if err != nil {
					errs <- err.Error()
					return
				}
				if out.Workers > 1 {
					split.Store(true)
				}
				if got := walkSig(out); got != want[(i+g)%len(inputs)] {
					errs <- fmt.Sprintf("goroutine %d parallel=%d query %v diverged:\ngot:\n%s\nsequential:\n%s",
						g, in.Parallelism, in.Query, got, want[(i+g)%len(inputs)])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if !split.Load() {
		t.Error("no concurrent walk split into ranges; the pool went unexercised")
	}
}
