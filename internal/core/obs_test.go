package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"xrefine/internal/kvstore"
	"xrefine/internal/obs"
	"xrefine/internal/xmltree"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// queryAllocs measures steady-state allocations of one uncached,
// untraced query against the given engine, issued on ctx.
func queryAllocs(t *testing.T, e *Engine, ctx context.Context) float64 {
	t.Helper()
	// Warm the lazy list loads so both engines measure the serving path,
	// not the first-touch index path.
	if _, err := queryCtx(ctx, e, "online databse"); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(50, func() {
		if _, err := queryCtx(ctx, e, "online databse"); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMetricsAllocOverhead pins the cost of the always-on instrumentation:
// the metered no-explain query path may allocate at most 2 more times per
// query than an engine built with DisableMetrics. Untraced queries carry
// no spans, so counter bumps and the latency histogram are the only delta.
// The same bound must hold on the flight-recorder path: a request context
// carrying an unsampled ReqInfo (the steady-state serving shape — every
// request records admission events, almost none are trace-sampled) adds
// ring writes but no spans and no exemplar pins, so it gets no extra
// allocation allowance.
func TestMetricsAllocOverhead(t *testing.T) {
	on, _ := newEngine(t, nil)
	off, _ := newEngine(t, &Config{DisableMetrics: true})
	bg := context.Background()
	got, base := queryAllocs(t, on, bg), queryAllocs(t, off, bg)
	if got > base+2 {
		t.Errorf("instrumented query = %.1f allocs/op, disabled = %.1f; overhead %.1f exceeds 2",
			got, base, got-base)
	}
	ri := obs.NewReqInfo() // Sampled stays false: the non-sampled hot path
	flight := queryAllocs(t, on, obs.WithReqInfo(bg, ri))
	if flight > base+2 {
		t.Errorf("flight-armed unsampled query = %.1f allocs/op, disabled = %.1f; overhead %.1f exceeds 2",
			flight, base, flight-base)
	}
}

// TestEngineStatsFromRegistry: the legacy Stats() snapshot must keep
// working now that it reads the shared registry instead of private
// atomics.
func TestEngineStatsFromRegistry(t *testing.T) {
	e, _ := newEngine(t, nil)
	if _, err := query(e, "online databse"); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Queries != 1 || st.Refined != 1 {
		t.Errorf("Stats() = %+v, want Queries=1 Refined=1", st)
	}
	if e.Metrics() == nil {
		t.Error("Metrics() = nil on a default engine")
	}
}

// TestEngineStats: Stats counts every query and the refined ones among
// them — a repeated query counts again.
func TestEngineStats(t *testing.T) {
	doc, err := xmltree.ParseString(`
<bib>
  <author><publications>
    <paper><title>database systems</title><year>2003</year></paper>
    <paper><title>keyword search</title><year>2005</year></paper>
  </publications></author>
</bib>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := NewFromDocument(doc, nil)
	for _, q := range []string{"databse", "databse", "database"} {
		if _, err := query(e, q); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Queries != 3 {
		t.Errorf("Queries = %d", st.Queries)
	}
	if st.Refined != 2 { // the two databse lookups
		t.Errorf("Refined = %d", st.Refined)
	}
}

// TestDisabledMetricsEngine: DisableMetrics must produce a fully working
// engine whose registry accessor reports nil and whose Stats are zero.
func TestDisabledMetricsEngine(t *testing.T) {
	e, _ := newEngine(t, &Config{DisableMetrics: true})
	resp, err := query(e, "online databse")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.NeedRefine {
		t.Error("typo query should need refinement")
	}
	if e.Metrics() != nil {
		t.Error("Metrics() should be nil with DisableMetrics")
	}
	if st := e.Stats(); st.Queries != 0 {
		t.Errorf("disabled engine Stats().Queries = %d, want 0", st.Queries)
	}
}

// scrubValues replaces every sample value in a Prometheus exposition with
// "V" so the golden pins names, labels, HELP and TYPE but not timings.
func scrubValues(text string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			b.WriteString(line)
		} else if i := strings.LastIndexByte(line, ' '); i >= 0 {
			b.WriteString(line[:i+1] + "V")
		} else {
			b.WriteString(line)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestPrometheusExpositionGolden locks the exposition's shape: every
// family name, HELP/TYPE declaration, label set and histogram bucket
// layout, with the (run-dependent) sample values scrubbed. Regenerate
// with `go test ./internal/core -run ExpositionGolden -update`.
func TestPrometheusExpositionGolden(t *testing.T) {
	// One refined query plus one degraded query so the labeled
	// degraded_total vec has a child and every engine counter is live.
	e, _ := newEngine(t, &Config{PostingBudget: 1})
	if _, err := query(e, "online databse"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := e.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("self-parse failed: %v\n%s", err, buf.String())
	}
	if fams := exp.Families(); len(fams) < 12 {
		t.Errorf("only %d families, want >= 12: %v", len(fams), fams)
	}

	got := scrubValues(buf.String())
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden; run with -update and review the diff\ngot:\n%s", got)
	}
}

// outlineSpans renders a span tree as an indented name outline —
// durations and attribute values vary run to run, names and nesting
// must not.
func outlineSpans(d *obs.SpanData, depth int, b *strings.Builder) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(d.Name)
	b.WriteByte('\n')
	for _, c := range d.Children {
		outlineSpans(c, depth+1, b)
	}
}

var rangeSpan = regexp.MustCompile(`^(\s*)range-\d+$`)

// TestTraceSpanTreeGolden pins the span taxonomy of a sequential traced
// query and checks the timing invariant: children are disjoint stages on
// the sequential path, so their durations must sum to no more than the
// root's.
func TestTraceSpanTreeGolden(t *testing.T) {
	e, _ := newEngine(t, &Config{Parallelism: 1})
	ctx, root := obs.NewTrace(context.Background(), "query")
	if _, err := queryCtx(ctx, e, "online databse"); err != nil {
		t.Fatal(err)
	}
	root.End()
	d := root.Data()
	defer root.Release()

	var b strings.Builder
	outlineSpans(d, 0, &b)
	got := b.String()
	want := strings.TrimLeft(`
query
  tokenize
  prepare
  refine:partition
    load-lists
  rank
`, "\n")
	if got != want {
		t.Errorf("span outline = \n%s\nwant:\n%s", got, want)
	}

	var childSum int64
	for _, c := range d.Children {
		if c.DurationNS < 0 {
			t.Errorf("span %s has negative duration %d", c.Name, c.DurationNS)
		}
		childSum += c.DurationNS
	}
	if childSum > d.DurationNS {
		t.Errorf("children duration sum %d exceeds root %d", childSum, d.DurationNS)
	}

	var refineSpan *obs.SpanData
	for _, c := range d.Children {
		if strings.HasPrefix(c.Name, "refine:") {
			refineSpan = c
		}
	}
	if refineSpan == nil {
		t.Fatal("no refine span")
	}
	for _, attr := range []string{"partitions", "slca_calls", "rq_generated"} {
		if _, ok := refineSpan.Attrs[attr]; !ok {
			t.Errorf("refine span missing %q attr: %v", attr, refineSpan.Attrs)
		}
	}
}

// TestParallelTraceSpans: a traced query whose walk splits into ranges
// emits one range span per range under the refine span, plus one merge
// span. Range spans overlap in time, so only their count and naming are
// asserted.
func TestParallelTraceSpans(t *testing.T) {
	e, _ := newEngine(t, &Config{Parallelism: 2})
	ctx, root := obs.NewTrace(context.Background(), "query")
	if _, err := queryCtx(ctx, e, "online databse"); err != nil {
		t.Fatal(err)
	}
	root.End()
	d := root.Data()
	defer root.Release()

	var refineSpan *obs.SpanData
	for _, c := range d.Children {
		if strings.HasPrefix(c.Name, "refine:") {
			refineSpan = c
		}
	}
	if refineSpan == nil {
		t.Fatalf("no refine span in %v", d)
	}
	ranges, merges := 0, 0
	for _, c := range refineSpan.Children {
		switch {
		case rangeSpan.MatchString(c.Name):
			ranges++
		case c.Name == "merge":
			merges++
		}
	}
	// A tiny corpus may not split the walk; when it does, the merge span
	// must be present too.
	if ranges > 0 && merges != 1 {
		t.Errorf("refine span has %d range spans but %d merge spans", ranges, merges)
	}
}

// TestTracedQueriesRace drives concurrent traced parallel queries; run
// with -race this guards the cross-goroutine span accumulation
// (AddInt from SLCA workers) and the shared registry.
func TestTracedQueriesRace(t *testing.T) {
	e, _ := newEngine(t, &Config{Parallelism: 4})
	queries := []string{"online databse", "keyword search", "twig pattern", "skyline databse"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				ctx, root := obs.NewTrace(context.Background(), "query")
				if _, err := queryCtx(ctx, e, queries[(g+i)%len(queries)]); err != nil {
					t.Error(err)
				}
				root.End()
				if d := root.Data(); d.DurationNS < 0 {
					t.Errorf("negative root duration %d", d.DurationNS)
				}
				root.Release()
			}
		}(g)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := e.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParsePrometheus(&buf); err != nil {
		t.Fatalf("post-race exposition malformed: %v", err)
	}
	if st := e.Stats(); st.Queries != 40 {
		t.Errorf("Stats().Queries = %d, want 40", st.Queries)
	}
}

// TestStoreBackedKvstoreMetrics: engines opened from an index store must
// bridge the pager's operation counters into the registry, completing the
// layer coverage (engine/refine/slca/index/kvstore).
func TestStoreBackedKvstoreMetrics(t *testing.T) {
	e, _ := newEngine(t, nil)
	store := kvstore.NewMem()
	defer store.Close()
	if err := e.SaveIndex(store); err != nil {
		t.Fatal(err)
	}
	// SaveIndex leaves the decoded-page cache warm and PageReads counts
	// pager misses only; drop it so the query actually touches the pager.
	store.DropCaches()
	e2, err := Open(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := query(e2, "online databse"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e2.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool)
	for _, f := range exp.Families() {
		have[f] = true
	}
	for _, want := range []string{
		"xrefine_kvstore_page_reads_total",
		"xrefine_kvstore_page_writes_total",
		"xrefine_kvstore_checksum_failures_total",
		"xrefine_kvstore_faults_injected_total",
	} {
		if !have[want] {
			t.Errorf("store-backed engine missing family %s", want)
		}
	}
	var reads float64 = -1
	for _, s := range exp.Samples {
		if s.Name == "xrefine_kvstore_page_reads_total" {
			reads = s.Value
		}
	}
	if reads <= 0 {
		t.Errorf("kvstore page reads = %v, want > 0 after a store-backed query", reads)
	}
}

// TestQuerySecondsHistogram: the latency histogram must record every
// query exactly once.
func TestQuerySecondsHistogram(t *testing.T) {
	e, _ := newEngine(t, nil)
	for i := 0; i < 3; i++ {
		if _, err := query(e, "online databse"); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range exp.Samples {
		if s.Name == "xrefine_engine_query_seconds_count" {
			if s.Value != 3 {
				t.Errorf("query_seconds_count = %v, want 3", s.Value)
			}
			return
		}
	}
	t.Error("no xrefine_engine_query_seconds_count sample")
}
