package refine

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"xrefine/internal/dewey"
)

func TestSharedBoundLowersMonotonically(t *testing.T) {
	b := newPruneBound()
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
	b := newPruneBound()
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

// TestWalkerCopiesEachPartition walks the fixture and checks that the
// walker visits each partition once, in document order, and copies exactly
// each list's postings under the partition, with the availability mask set
// for the lists that have any.
func TestWalkerCopiesEachPartition(t *testing.T) {
	f := newFixture(t, fig1, []string{"online", "keyword"})
	in := f.input(t, []string{"online", "keyword", "mining"}, nil)
	ks := in.ScanKeywords()
	var s Scan
	lists, err := s.scanLists(in, ks)
	if err != nil {
		t.Fatal(err)
	}
	w := &s.w
	w.open(lists)
	defer w.close()
	var prev dewey.ID
	visited := 0
	for {
		if !w.next() {
			break
		}
		var pid dewey.ID
		for _, col := range w.cols {
			if len(col) > 0 {
				pid = col[0].ID[:2]
				break
			}
		}
		if len(pid) != 2 {
			t.Fatalf("partition %s is not a child of the root", pid)
		}
		if prev != nil && dewey.Compare(prev, pid) >= 0 {
			t.Fatalf("partitions out of order: %s then %s", prev, pid)
		}
		prev = pid.Clone()
		visited++
		for i, col := range w.cols {
			want := lists[i].Slice(lists[i].InSubtree(pid))
			if fmt.Sprint(col) != fmt.Sprint(want) {
				t.Fatalf("partition %s list %s: walker copied %v, want %v", pid, ks[i], col, want)
			}
			if maskHas(w.mask, i) != (len(want) > 0) {
				t.Fatalf("partition %s list %s: mask bit %v with %d postings", pid, ks[i], maskHas(w.mask, i), len(want))
			}
		}
	}
	if visited == 0 {
		t.Fatal("the walk visited no partitions")
	}
}
