package refine_test

// The one walk's contract: for any query, corpus and K, the document split
// into shards whose scans are merged returns exactly the candidates of the
// lone walk over the whole document: same keyword sets, same
// dissimilarities, and Results concatenated in the same document order.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"xrefine/internal/experiments"
	"xrefine/internal/index"
	"xrefine/internal/lexicon"
	"xrefine/internal/refine"
	"xrefine/internal/rules"
	"xrefine/internal/searchfor"
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
	scans, errs := refine.RunScans(in.Budget, jobs)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	r := rotate % len(scans)
	return refine.MergeScans(in, k, append(scans[r:], scans[:r]...))
}

// diffWalk compares one query's lone walk against the merged scans of each
// shard split, and returns the lone walk.
func diffWalk(t *testing.T, in refine.Input, splits []shardSplit, k int) *refine.TopKOutcome {
	t.Helper()
	terms := in.Query
	one, err := refine.PartitionTopK(in, k)
	if err != nil {
		t.Fatalf("lone walk %v: %v", terms, err)
	}
	want := walkSig(one)
	for i, sp := range splits {
		got := shardWalk(t, in, k, sp.ixs, i+k)
		if s := walkSig(got); s != want {
			t.Errorf("query %v k=%d shards %s diverged\ngot:\n%s\nlone walk:\n%s", terms, k, sp.name, s, want)
		}
		if got.Partitions != one.Partitions {
			t.Errorf("query %v k=%d shards %s visited %d partitions, lone walk %d", terms, k, sp.name, got.Partitions, one.Partitions)
		}
	}
	return one
}

// TestParallelPartitionMatchesSequential runs the generated workload plus
// frequent-term queries through every shard split of the walk for
// k ∈ {1,3,10} × shards ∈ {2,4} × {range, hash}, the shard scans running
// in parallel on the pool.
func TestParallelPartitionMatchesSequential(t *testing.T) {
	c := walkCorpus(t)
	splits := shardSplits(t, c)
	queries := walkQueries(t, c)
	for _, k := range []int{1, 3, 10} {
		for _, terms := range queries {
			diffWalk(t, prepareInput(t, c.Index, terms), splits, k)
		}
	}
}

// TestFractionalLexiconShardSplits: with synonym scores that are not
// whole numbers, a dSim's bits could depend on the order its rule scores
// were summed in, and the same refined query could reach the merge at two
// dissimilarities. On the golden walk queries under such a lexicon, every
// shard split still returns the lone walk's candidates.
func TestFractionalLexiconShardSplits(t *testing.T) {
	c := walkCorpus(t)
	splits := shardSplits(t, c)
	lex := lexicon.New()
	for i, pair := range [][2]string{
		{"publication", "article"}, {"publication", "inproceedings"}, {"publication", "proceedings"},
		{"article", "inproceedings"}, {"paper", "article"}, {"paper", "inproceedings"},
		{"search", "retrieval"}, {"query", "search"}, {"database", "databases"}, {"web", "internet"},
		{"mining", "analysis"}, {"efficient", "fast"}, {"xml", "data"}, {"keyword", "query"},
	} {
		if err := lex.AddSynonym(pair[0], pair[1], []float64{0.1, 0.2, 0.3, 0.7}[i%4]); err != nil {
			t.Fatal(err)
		}
	}
	fractional := 0
	for _, k := range []int{1, 3} {
		for _, terms := range walkQueries(t, c) {
			rs, err := rules.Generator{Lexicon: lex}.Generate(c.Index, terms)
			if err != nil {
				t.Fatal(err)
			}
			infer := append(slices.Clone(terms), rs.NewKeywords(terms)...)
			judge := searchfor.NewJudge(searchfor.Infer(c.Index, infer, nil))
			out := diffWalk(t, refine.Input{Index: c.Index, Query: terms, Rules: rs, Judge: judge}, splits, k)
			for _, it := range out.Candidates {
				if it.RQ.DSim != math.Trunc(it.RQ.DSim) {
					fractional++
				}
			}
		}
	}
	if fractional == 0 {
		t.Fatal("no candidate carried a fractional dSim; the lexicon did not apply")
	}
	t.Logf("%d candidates carried a fractional dSim", fractional)
}

// TestParallelPartitionFuzzDifferential throws randomized queries and K at
// every shard split of the walk. The seed is fixed for
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
			// Mix frequent terms (long lists, many partitions) with uniform
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
		diffWalk(t, prepareInput(t, c.Index, terms), splits, 1+rng.Intn(10))
	}
}

// TestConcurrentWalksShareLists runs whole walks from eight goroutines at
// once over shared indexes — half lone walks, half 4-shard walks whose
// scans run on the pool and merge — and holds every outcome to the
// sequential lone walk's. The walks share the resident lists and nothing
// else: each reads them through its own cursors and copies partitions into
// its own buffers, so under -race this proves no walk reads decode state
// another one writes. The concurrent phase starts from cold judges, so
// their meaningfulness memos are first written under contention too.
func TestConcurrentWalksShareLists(t *testing.T) {
	c := walkCorpus(t)
	shards := shardSplits(t, c)[1].ixs
	queries := walkQueries(t, c)
	queries = append(queries[:4:4], queries[len(queries)-4:]...) // four Table-VIII, four frequent-term
	inputs := make([]refine.Input, len(queries))
	want := make([]string, len(queries))
	for i, terms := range queries {
		out, err := refine.PartitionTopK(prepareInput(t, c.Index, terms), 3)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = walkSig(out)
		inputs[i] = prepareInput(t, c.Index, terms)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(queries))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range queries {
				in := inputs[(i+g)%len(inputs)]
				var out *refine.TopKOutcome
				if g%2 == 0 {
					var err error
					if out, err = refine.PartitionTopK(in, 3); err != nil {
						errs <- err.Error()
						return
					}
				} else {
					out = shardWalk(t, in, 3, shards, g)
				}
				if got := walkSig(out); got != want[(i+g)%len(inputs)] {
					errs <- fmt.Sprintf("goroutine %d query %v diverged:\ngot:\n%s\nsequential:\n%s",
						g, in.Query, got, want[(i+g)%len(inputs)])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
