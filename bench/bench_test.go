package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkJSON is the part of the root BENCHMARK.json the test checks the
// program against.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// scopedLayers names, per workload, per-layer metrics that only that
// workload reports, because only it deploys the layer.
var scopedLayers = map[string][]string{
	"sharded_http": {"shard.us_per_req", "shard.overhead_us_per_req", "shard.merge_us_per_req", "shard.hedges_per_req"},
	"live_update": {
		"core.apply_ms_per_batch", "mutate.stage_ms_per_batch", "mutate.wal_bytes_per_op", "storage.page_writes_per_batch",
		"storage.btree.open_ms", "storage.btree.get_us", "storage.btree.range_ms", "storage.btree.commit_ms_per_batch", "storage.btree.disk_bytes_per_doc_byte",
	},
}

// exactCounts are the per-layer metrics that count work rather than time
// it; one goroutine and one seed must reproduce them to the last digit.
var exactCounts = []string{
	"wire.resp_kb_per_req",
	"rules.rules_per_req", "rules.new_keywords_per_req", "searchfor.candidates_per_req",
	"refine.partitions_per_req", "refine.rq_generated_per_req", "refine.rq_pruned_per_req", "refine.prune_ratio",
	"slca.calls_per_req", "slca.postings_per_req",
	"index.block_decodes_per_req", "index.postings_decoded_per_req", "index.list_loads_per_req",
	"xmltree.nodes",
}

// TestSmoke runs every workload in both modes on a tiny corpus against a
// real xserve and checks the output's shape: every metric BENCHMARK.json
// names is there with its unit, nothing failed, the trace is well formed,
// and the counts repeat.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots xserve subprocesses")
	}
	bj := readBenchmarkJSON(t)
	tmp := t.TempDir()
	bin, err := buildXserve(tmp)
	if err != nil {
		t.Fatal(err)
	}
	defer killAll()
	cfg := defaultConfig()
	cfg.scale, cfg.rounds, cfg.warmup, cfg.countReads = 0.05, 1, 5, 30
	cfg.seconds, cfg.writeEvery = 0.1, 20*time.Millisecond // five update batches
	cfg.traceReads, cfg.traceBatches = 30, 5
	b := &bench{cfg: cfg, bin: bin, tmp: tmp}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q (or their reasons differ)", i, bj.Workloads[i].Name, w.name)
		}
		e2e, err := b.runE2E(w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if e2e.Failed != 0 || e2e.Attempted == 0 || e2e.EndToEnd["fail_ratio"].Value != 0 {
			t.Errorf("%s: %d of %d failed: %v", w.name, e2e.Failed, e2e.Attempted, e2e.Notes)
		}
		for _, want := range bj.EndToEnd {
			got, ok := e2e.EndToEnd[want.Name]
			if !ok || got.Unit != want.Unit || got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s: got %+v (present=%v), want a positive value in %s", w.name, want.Name, got, ok, want.Unit)
			}
		}
		if w.live {
			for _, name := range []string{"update_p50_ms", "update_p95_ms", "bench.writer_late_p95_ms", "core.epoch_swap_reader_stall_ms"} {
				if _, ok := e2e.EndToEnd[name]; !ok {
					t.Errorf("%s: %s missing", w.name, name)
				}
			}
		}
		again, err := b.runE2E(w)
		if err != nil {
			t.Fatalf("%s again: %v", w.name, err)
		}
		if a, c := e2e.EndToEnd["resp_kb_per_req"], again.EndToEnd["resp_kb_per_req"]; a.Value != c.Value || a.Samples != cfg.countReads {
			t.Errorf("%s: resp_kb_per_req is %v over %d reads, then %v, on the same seed", w.name, a.Value, a.Samples, c.Value)
		}

		first, err := b.runTrace(w, tmp)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if first.Failed != 0 {
			t.Errorf("%s traced: %d failed: %v", w.name, first.Failed, first.Notes)
		}
		if len(first.PerLayer) != len(bj.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, BENCHMARK.json lists %d", w.name, len(first.PerLayer), len(bj.PerLayer))
		}
		for _, want := range bj.PerLayer {
			if got, ok := first.PerLayer[want.Name]; !ok || got.Unit != want.Unit {
				t.Errorf("%s: per-layer metric %s: got %+v (present=%v), want unit %s", w.name, want.Name, got, ok, want.Unit)
			}
		}
		for _, name := range scopedLayers[w.name] {
			if _, ok := first.Scoped[name]; !ok {
				t.Errorf("%s: scoped per-layer metric %s missing", w.name, name)
			}
		}
		if len(scopedLayers[w.name]) == 0 && len(first.Scoped) != 0 {
			t.Errorf("%s reports scoped metrics %v and deploys no layer of its own", w.name, first.Scoped)
		}
		checkTrace(t, tracePath(tmp, w.name))

		second, err := b.runTrace(w, tmp)
		if err != nil {
			t.Fatalf("%s traced again: %v", w.name, err)
		}
		for _, name := range exactCounts {
			a, ok := first.PerLayer[name]
			if c := second.PerLayer[name]; !ok || a.Value != c.Value {
				t.Errorf("%s: %s is %v (present=%v) then %v on the same seed", w.name, name, a.Value, ok, c.Value)
			}
		}
		if a, c := first.Scoped["mutate.wal_bytes_per_op"], second.Scoped["mutate.wal_bytes_per_op"]; a.Value != c.Value {
			t.Errorf("%s: mutate.wal_bytes_per_op is %v then %v on the same seed", w.name, a.Value, c.Value)
		}
	}
	for _, sp := range e2eSpecs {
		if !sp.driver {
			continue
		}
		found := false
		for _, want := range bj.EndToEnd {
			if want.Name == sp.name {
				found = true
				if want.Unit != sp.unit || want.Better != sp.better || want.Bound != sp.bound {
					t.Errorf("BENCHMARK.json and spec.go disagree on %s: %+v vs %+v", sp.name, want, sp)
				}
			}
		}
		if !found {
			t.Errorf("BENCHMARK.json does not list %s", sp.name)
		}
	}
}

// checkTrace reads a span file: every span belongs to a request, its
// parent exists, and no span is shorter than the children it covers.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil || len(spans) == 0 {
		t.Fatalf("%s: %d spans, err %v", path, len(spans), err)
	}
	covered := map[int]int64{}
	for _, sp := range spans {
		if sp.Req <= 0 || sp.ID <= 0 || sp.ID > len(spans) || sp.End < sp.Start {
			t.Fatalf("%s: malformed span %+v", path, sp)
		}
		if sp.Parent < 0 || sp.Parent >= sp.ID {
			t.Fatalf("%s: span %d has unresolvable parent %d", path, sp.ID, sp.Parent)
		}
		if sp.Parent > 0 && spans[sp.Parent-1].Req != sp.Req {
			t.Errorf("%s: span %d and its parent belong to different requests", path, sp.ID)
		}
		if sp.Parent > 0 && !sp.Probe {
			covered[sp.Parent] += sp.End - sp.Start
		}
	}
	for _, sp := range spans {
		if self := sp.End - sp.Start - covered[sp.ID]; self < 0 {
			t.Errorf("%s: span %d (%s) has self time %d ns", path, sp.ID, sp.Name, self)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{name: "p50_ms", better: "lower", bound: 0.10}
	higher := metricSpec{name: "qps", better: "higher", bound: 0.10}
	fixed := metricSpec{name: "allocs_per_req", better: "lower", bound: 0.10, fixedList: true}
	steady := func(v float64) metric { return metric{Value: v, Rounds: []float64{v, v, v}} }
	noisy := func(v float64) metric { return metric{Value: v, Rounds: []float64{v * 0.9, v, v * 1.1}} }
	for _, tc := range []struct {
		sp   metricSpec
		a, b metric
		want string
	}{
		{lower, steady(10), steady(10.5), "ok"},
		{lower, steady(10), steady(11.5), "regressed"},
		{lower, steady(10), steady(5), "ok"},
		{higher, steady(100), steady(85), "regressed"},
		{higher, steady(100), steady(120), "ok"},
		{lower, noisy(10), steady(11.5), "unresolved"},
		{lower, steady(10), metric{Value: 10, Samples: 900, Rounds: []float64{9, 10, 11}}, "unresolved"}, // a pooled percentile
		{fixed, noisy(10), noisy(10.5), "ok"},                                                            // the rounds differ by their requests, not by noise
		{fixed, noisy(10), noisy(11.5), "regressed"},
		{metricSpec{name: "fail_ratio", better: "lower"}, steady(0), metric{Value: 0.01}, "regressed"},
		{metricSpec{name: "fail_ratio", better: "lower"}, steady(0), steady(0), "ok"},
	} {
		if _, got := verdict(tc.sp, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.sp.name, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
}

func TestCompareRefusesInvalidRun(t *testing.T) {
	run := func(valid bool) *resultFile {
		return &resultFile{Workloads: map[string]*workloadResult{"refine_mix": {
			Valid:    valid,
			EndToEnd: metricSet{"qps": {Value: 100, Unit: "req/s", Rounds: []float64{100, 100, 100}}},
		}}}
	}
	if code := compareResults(run(true), run(true)); code != 0 {
		t.Errorf("two equal valid runs compare with exit code %d", code)
	}
	if code := compareResults(run(true), run(false)); code == 0 {
		t.Error("a run marked invalid was accepted")
	}
}
