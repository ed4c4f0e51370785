package refine

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"xrefine/internal/datagen"
	"xrefine/internal/dewey"
	"xrefine/internal/index"
	"xrefine/internal/rules"
	"xrefine/internal/searchfor"
)

func TestSharedBoundLowersMonotonically(t *testing.T) {
	b := NewPruneBound()
	if got := b.get(); !math.IsInf(got, 1) {
		t.Fatalf("fresh bound = %v, want +Inf", got)
	}
	b.lower(5)
	b.lower(7) // higher value must not loosen the bound
	if got := b.get(); got != 5 {
		t.Fatalf("bound = %v, want 5", got)
	}
	b.lower(2)
	if got := b.get(); got != 2 {
		t.Fatalf("bound = %v, want 2", got)
	}
}

func TestSharedBoundConcurrentLowering(t *testing.T) {
	b := NewPruneBound()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := 100; v > g; v-- {
				b.lower(float64(v))
			}
		}(g)
	}
	wg.Wait()
	if got := b.get(); got != 1 {
		t.Fatalf("bound = %v, want 1 (the global minimum lowered)", got)
	}
}

func TestSplitPivotsArePartitionRoots(t *testing.T) {
	f := newFixture(t, fig1, []string{"online", "keyword"})
	in := f.input(t, []string{"online", "keyword"}, nil)
	ks := in.scanKeywords()
	lists, err := scanLists(in, ks)
	if err != nil {
		t.Fatal(err)
	}
	pivots := splitPivots(lists, 4)
	var prev dewey.ID
	for _, p := range pivots {
		if len(p) != 2 {
			t.Errorf("pivot %s is not a partition root", p)
		}
		if prev != nil && dewey.Compare(prev, p) >= 0 {
			t.Errorf("pivots out of order: %s then %s", prev, p)
		}
		prev = p
	}
	if got := splitPivots(lists, 1); got != nil {
		t.Errorf("splitPivots(1) = %v, want nil", got)
	}
}

// TestWalkerRangesCoverFullWalk splits the fixture at every pivot and
// checks that walking the ranges in order visits exactly the partitions of
// the unbounded walk, with identical partition postings and availability,
// and that the postings are each list's postings under the partition.
func TestWalkerRangesCoverFullWalk(t *testing.T) {
	f := newFixture(t, fig1, []string{"online", "keyword"})
	in := f.input(t, []string{"online", "keyword", "mining"}, nil)
	ks := in.scanKeywords()
	lists, err := scanLists(in, ks)
	if err != nil {
		t.Fatal(err)
	}
	type visit struct {
		pid   string
		posts string
		avail string
	}
	record := func(w *partitionWalker) []visit {
		var out []visit
		for {
			pid, ok := w.next()
			if !ok {
				return out
			}
			avail := ""
			for i, k := range ks {
				if maskHas(w.mask, i) {
					avail += k + ","
				}
			}
			var posts strings.Builder
			for i, col := range w.cols {
				want := lists[i].Slice(lists[i].InSubtree(pid))
				if fmt.Sprint(col) != fmt.Sprint(want) {
					t.Fatalf("partition %s list %s: walker copied %v, want %v", pid, ks[i], col, want)
				}
				fmt.Fprintf(&posts, "%v|", col)
			}
			out = append(out, visit{pid: pid.String(), posts: posts.String(), avail: avail})
		}
	}
	full := record(newPartitionWalker(lists, nil, nil))
	if len(full) == 0 {
		t.Fatal("full walk visited no partitions")
	}
	pivots := splitPivots(lists, 4)
	var split []visit
	for r := 0; r <= len(pivots); r++ {
		lo, hi := rangeBounds(pivots, r)
		split = append(split, record(newPartitionWalker(lists, lo, hi))...)
	}
	if fmt.Sprint(full) != fmt.Sprint(split) {
		t.Fatalf("split walk diverged:\nfull:  %v\nsplit: %v", full, split)
	}
}

// largeInput builds an Input over a generated DBLP-like corpus big enough
// to engage the parallel path, querying the corpus's most frequent terms.
func largeInput(t testing.TB) Input {
	t.Helper()
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	vocab := ix.Vocabulary()
	sort.SliceStable(vocab, func(a, b int) bool { return ix.ListLen(vocab[a]) > ix.ListLen(vocab[b]) })
	q := vocab[:3]
	judge := searchfor.NewJudge(searchfor.Infer(ix, q, nil))
	return Input{Index: ix, Query: q, Rules: rules.NewSet(2), Judge: judge}
}

func outcomeSig(out *TopKOutcome) string {
	var b strings.Builder
	for _, it := range out.Candidates {
		fmt.Fprintf(&b, "%s|%v|%v;", strings.Join(it.RQ.Keywords, ","), it.RQ.DSim, matchIDs(it.Results))
	}
	return b.String()
}

// TestParallelWorkerPoolUnderRace runs the whole walk split into ranges —
// range splitter, per-range scans on the pool, shared pruning bound, merge
// — from several goroutines at once over one shared index, so `go test
// -race` inspects the walk's own synchronization, and every outcome is
// checked against the one-range walk.
func TestParallelWorkerPoolUnderRace(t *testing.T) {
	in := largeInput(t)
	seq, err := PartitionTopK(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := outcomeSig(seq)
	if len(seq.Candidates) == 0 {
		t.Fatal("sequential run found no candidates; fixture lost its teeth")
	}
	// A cold judge for the concurrent phase: the sequential run above
	// warmed the original's meaningfulness memo, which would hide races
	// on its first writes.
	in.Judge = searchfor.NewJudge(searchfor.Infer(in.Index, in.Query, nil))
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := in
			in.Parallelism = 2 + g%4
			out, err := PartitionTopK(in, 3)
			if err != nil {
				errs <- err.Error()
				return
			}
			if out.Workers <= 1 {
				errs <- "the walk did not split on the large corpus"
				return
			}
			if got := outcomeSig(out); got != want {
				errs <- fmt.Sprintf("workers=%d diverged:\ngot  %s\nwant %s", 2+g%4, got, want)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestParallelFallsBackOnTinyDocuments: below the per-range posting floor
// the walk must stay one range on the caller's goroutine, whatever the
// requested parallelism.
func TestParallelFallsBackOnTinyDocuments(t *testing.T) {
	f := newFixture(t, fig1, []string{"online", "keyword"})
	in := f.input(t, []string{"online", "keyword"}, nil)
	in.Parallelism = 8
	out, err := PartitionTopK(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Workers != 1 {
		t.Fatalf("tiny document ran %d workers, want one range", out.Workers)
	}
	in.Parallelism = 1
	seq, err := PartitionTopK(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Candidates) != len(seq.Candidates) {
		t.Fatalf("fallback found %d candidates, sequential %d", len(out.Candidates), len(seq.Candidates))
	}
}
