package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_inflight", "inflight")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "help")
	b := r.Counter("test_total", "other help ignored")
	if a != b {
		t.Fatal("re-registering a counter returned a different series")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("series not shared across registrations")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("test_total", "help")
}

func TestDisabledRegistryNoops(t *testing.T) {
	r := Disabled()
	c := r.Counter("x_total", "")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("disabled counter accumulated")
	}
	r.Gauge("g", "").Set(9)
	r.Histogram("h", "", nil).Observe(1)
	r.CounterVec("v_total", "", "l").With("a").Inc()
	r.CounterFunc("f_total", "", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry write: %v", err)
	}
	if len(r.Snapshot()) != 0 {
		t.Error("disabled registry produced a snapshot")
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_requests_total", "reqs", "route", "code")
	v.With("/search", "200").Add(3)
	v.With("/search", "500").Inc()
	v.With("/narrow", "200").Inc()
	if got := SnapshotTotal(r.Snapshot(), "test_requests_total"); got != 5 {
		t.Errorf("SnapshotTotal = %d, want 5", got)
	}
	if got := v.With("/search", "200").Value(); got != 3 {
		t.Errorf("series = %d, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "lat", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	cum := h.cumulative()
	for i, want := range []uint64{1, 3, 4} {
		if cum[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, cum[i], want)
		}
	}
}

// TestExpositionRoundTrip: whatever the writer emits, the in-tree parser
// must accept, with families and label values intact.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_ops_total", "operations performed").Add(12)
	r.Gauge("app_inflight", "in-flight requests").Set(2)
	r.Histogram("app_seconds", "latency", []float64{0.01, 0.1}).Observe(0.05)
	r.CounterVec("app_requests_total", "by route", "route", "code").With("/search", "200").Inc()
	r.CounterFunc("app_pages_total", "pager reads", func() float64 { return 41 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parser rejected our own exposition:\n%s\nerr: %v", b.String(), err)
	}
	fams := exp.Families()
	want := []string{"app_inflight", "app_ops_total", "app_pages_total", "app_requests_total", "app_seconds"}
	got := make(map[string]bool)
	for _, f := range fams {
		got[f] = true
	}
	for _, f := range want {
		if !got[f] {
			t.Errorf("family %q missing from exposition", f)
		}
	}
	for _, s := range exp.Samples {
		if s.Name == "app_requests_total" {
			if s.Labels["route"] != "/search" || s.Labels["code"] != "200" {
				t.Errorf("labels = %v", s.Labels)
			}
			if s.Value != 1 {
				t.Errorf("labeled value = %v", s.Value)
			}
		}
		if s.Name == "app_pages_total" && s.Value != 41 {
			t.Errorf("counterfunc value = %v, want 41", s.Value)
		}
	}
}

func TestParserRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no TYPE":          "some_metric 3\n",
		"bad name":         "# TYPE 9bad counter\n9bad 3\n",
		"bad value":        "# TYPE m counter\nm notanumber\n",
		"unbalanced brace": "# TYPE m counter\nm{a=\"b\" 3\n",
		"unquoted label":   "# TYPE m counter\nm{a=b} 3\n",
		"unknown type":     "# TYPE m sparkline\nm 3\n",
		"duplicate TYPE":   "# TYPE m counter\n# TYPE m counter\nm 3\n",
		"empty":            "",
	}
	for name, body := range cases {
		if _, err := ParsePrometheus(strings.NewReader(body)); err == nil {
			t.Errorf("%s: parser accepted %q", name, body)
		}
	}
}

func TestSnapshotJSONShapes(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(3)
	r.CounterVec("v_total", "", "reason").With("deadline").Add(2)
	r.Histogram("h_seconds", "", nil).Observe(0.2)
	snap := r.Snapshot()
	if snap["c_total"] != uint64(3) {
		t.Errorf("c_total = %v", snap["c_total"])
	}
	series, ok := snap["v_total"].(map[string]any)
	if !ok || series["reason=deadline"] != uint64(2) {
		t.Errorf("v_total = %v", snap["v_total"])
	}
	hist, ok := snap["h_seconds"].(map[string]any)
	if !ok || hist["count"] != uint64(1) {
		t.Errorf("h_seconds = %v", snap["h_seconds"])
	}
	r.CounterVec("v_total", "", "reason").With("budget").Add(5)
	snap = r.Snapshot()
	for name, want := range map[string]uint64{"c_total": 3, "v_total": 7, "absent_total": 0} {
		if got := SnapshotTotal(snap, name); got != want {
			t.Errorf("SnapshotTotal(%s) = %d, want %d", name, got, want)
		}
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// run under -race this is the registry half of the concurrency satellite.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, iters = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("conc_total", "")
			v := r.CounterVec("conc_vec_total", "", "w")
			h := r.Histogram("conc_seconds", "", nil)
			g := r.Gauge("conc_gauge", "")
			for i := 0; i < iters; i++ {
				c.Inc()
				v.With(string(rune('a' + w%4))).Inc()
				h.Observe(float64(i) / 1000)
				g.Add(1)
				if i%100 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("conc_total", "").Value(); got != workers*iters {
		t.Errorf("conc_total = %d, want %d", got, workers*iters)
	}
	if got := SnapshotTotal(r.Snapshot(), "conc_vec_total"); got != workers*iters {
		t.Errorf("vec sum = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("conc_seconds", "", nil).Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
}
