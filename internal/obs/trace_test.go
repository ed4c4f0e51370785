package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNoTracePathIsInert(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "stage")
	if ctx2 != ctx {
		t.Error("StartSpan without a trace derived a new context")
	}
	if sp != nil {
		t.Error("StartSpan without a trace returned a span")
	}
	// Every method must be callable on the nil span.
	sp.End()
	sp.SetInt("k", 1)
	sp.AddInt("k", 1)
	sp.SetStr("k", "v")
	if sp.Data() != nil {
		t.Error("nil span produced data")
	}
	if c := sp.StartChild("x"); c != nil {
		t.Error("nil span produced a child")
	}
	sp.Release()
}

func TestSpanTree(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "query")
	ctx1, prep := StartSpan(ctx, "prepare")
	prep.SetInt("rules", 4)
	if SpanFromContext(ctx1) != prep {
		t.Error("child context does not carry the child span")
	}
	prep.End()
	_, ref := StartSpan(ctx, "refine")
	ref.AddInt("slca_ns", 100)
	ref.AddInt("slca_ns", 50)
	ref.SetStr("strategy", "partition")
	w := ref.StartChild("worker-0")
	w.End()
	ref.End()
	time.Sleep(time.Millisecond)
	root.End()

	d := root.Data()
	if d.Name != "query" || len(d.Children) != 2 {
		t.Fatalf("tree = %+v", d)
	}
	if d.Children[0].Name != "prepare" || d.Children[0].Attrs["rules"] != int64(4) {
		t.Errorf("prepare = %+v", d.Children[0])
	}
	refD := d.Children[1]
	if refD.Attrs["slca_ns"] != int64(150) || refD.Attrs["strategy"] != "partition" {
		t.Errorf("refine attrs = %v", refD.Attrs)
	}
	if len(refD.Children) != 1 || refD.Children[0].Name != "worker-0" {
		t.Errorf("refine children = %+v", refD.Children)
	}
	if d.DurationNS <= 0 {
		t.Error("root duration not stamped")
	}
	// Sequential children must fit inside the parent.
	var sum int64
	for _, c := range d.Children {
		sum += c.DurationNS
	}
	if sum > d.DurationNS {
		t.Errorf("children sum %d exceeds root %d", sum, d.DurationNS)
	}
	var b strings.Builder
	WriteTree(&b, d)
	if !strings.Contains(b.String(), "worker-0") || !strings.Contains(b.String(), "strategy=partition") {
		t.Errorf("WriteTree output:\n%s", b.String())
	}
	root.Release()
}

// TestSpanPoolReuse: a released tree's spans must come back from the pool
// fully reset.
func TestSpanPoolReuse(t *testing.T) {
	_, root := NewTrace(context.Background(), "first")
	c := root.StartChild("child")
	c.SetInt("n", 9)
	c.End()
	root.End()
	root.Release()

	_, again := NewTrace(context.Background(), "second")
	d := again.Data()
	if len(d.Children) != 0 || len(d.Attrs) != 0 {
		t.Errorf("pooled span not reset: %+v", d)
	}
	if d.Name != "second" {
		t.Errorf("name = %q", d.Name)
	}
	again.Release()
}

// TestSpanConcurrency mutates one span tree from many goroutines — the
// span half of the -race concurrency satellite.
func TestSpanConcurrency(t *testing.T) {
	_, root := NewTrace(context.Background(), "query")
	var wg sync.WaitGroup
	const workers, iters = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				root.AddInt("total", 1)
				c := root.StartChild("w")
				c.SetInt("i", int64(i))
				c.End()
				if i%50 == 0 {
					_ = root.Data()
				}
			}
		}(w)
	}
	wg.Wait()
	root.End()
	d := root.Data()
	if d.Attrs["total"] != int64(workers*iters) {
		t.Errorf("total = %v, want %d", d.Attrs["total"], workers*iters)
	}
	if len(d.Children) != workers*iters {
		t.Errorf("children = %d, want %d", len(d.Children), workers*iters)
	}
	root.Release()
}
