package obs

import (
	"strings"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id == 0 {
		t.Fatal("NewTraceID returned the zero sentinel")
	}
	s := id.String()
	if len(s) != 16 {
		t.Fatalf("String() = %q, want 16 hex chars", s)
	}
	back, err := ParseTraceID(s)
	if err != nil || back != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v; want %v", s, back, err, id)
	}
	if _, err := ParseTraceID("xyz"); err == nil {
		t.Error("ParseTraceID accepted garbage")
	}
	if _, err := ParseTraceID("0000000000000000"); err == nil {
		t.Error("ParseTraceID accepted the zero sentinel")
	}
	// IDs must be distinct across calls.
	if NewTraceID() == NewTraceID() {
		t.Error("consecutive trace IDs collided")
	}
}

func TestEventKindNames(t *testing.T) {
	for k := EvAdmit; k <= EvBudgetExpiry; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind-") {
			t.Fatalf("kind %d has no name", k)
		}
		back, err := ParseEventKind(name)
		if err != nil || back != k {
			t.Fatalf("ParseEventKind(%q) = %v, %v; want %v", name, back, err, k)
		}
	}
	if k, err := ParseEventKind(""); err != nil || k != KindAny {
		t.Errorf("empty kind should parse to KindAny, got %v, %v", k, err)
	}
	if _, err := ParseEventKind("nope"); err == nil {
		t.Error("ParseEventKind accepted an unknown name")
	}
}

func TestFlightRecorderRingAndFilters(t *testing.T) {
	f := NewFlightRecorder(4)
	idA, idB := NewTraceID(), NewTraceID()
	f.Record(Event{Trace: idA, Kind: EvAdmit, Shard: -1, Replica: -1})
	f.Record(Event{Trace: idA, Kind: EvAttemptStart, Shard: 0, Replica: 1})
	f.Record(Event{Trace: idB, Kind: EvAdmit, Shard: -1, Replica: -1})
	f.Record(Event{Trace: idB, Kind: EvAttemptStart, Shard: 2, Replica: 0})

	all := f.Events(EventFilter{})
	if len(all) != 4 {
		t.Fatalf("Events() = %d events, want 4", len(all))
	}
	// Newest first, monotone sequence numbers.
	for i := 1; i < len(all); i++ {
		if all[i-1].Seq <= all[i].Seq {
			t.Fatalf("events not newest-first: seq %d before %d", all[i-1].Seq, all[i].Seq)
		}
	}
	if got := f.Events(EventFilter{Trace: idA}); len(got) != 2 {
		t.Errorf("trace filter = %d events, want 2", len(got))
	}
	if got := f.Events(EventFilter{Kind: EvAdmit}); len(got) != 2 {
		t.Errorf("kind filter = %d events, want 2", len(got))
	}
	if got := f.Events(EventFilter{Shard: 2, HasShard: true}); len(got) != 1 || got[0].Trace != idB {
		t.Errorf("shard filter = %v, want one idB event", got)
	}
	if got := f.Events(EventFilter{Limit: 3}); len(got) != 3 {
		t.Errorf("limit filter = %d events, want 3", len(got))
	}

	// Overflow: the 5th record overwrites the oldest and counts dropped.
	f.Record(Event{Trace: idA, Kind: EvFinish, Shard: -1, Replica: -1})
	if f.Len() != 4 || f.Dropped() != 1 {
		t.Errorf("after overflow Len=%d Dropped=%d, want 4, 1", f.Len(), f.Dropped())
	}
	newest := f.Events(EventFilter{Limit: 1})[0]
	if newest.Kind != EvFinish {
		t.Errorf("newest event kind = %v, want finish", newest.Kind)
	}

	// Nil recorder: all methods inert.
	var nilf *FlightRecorder
	nilf.Record(Event{Kind: EvAdmit})
	if nilf.Events(EventFilter{}) != nil || nilf.Len() != 0 {
		t.Error("nil recorder not inert")
	}
}

func TestRegistryFlightShared(t *testing.T) {
	r := NewRegistry()
	f1, f2 := r.Flight(), r.Flight()
	if f1 == nil || f1 != f2 {
		t.Fatal("Registry.Flight must lazily create one shared recorder")
	}
	if Disabled().Flight() != nil {
		t.Error("disabled registry must have a nil recorder")
	}
}

func TestReqInfoServingAttribution(t *testing.T) {
	ri := NewReqInfo()
	if s, rp, h, ok := ri.Serving(); ok || s != -1 || rp != -1 || h {
		t.Fatalf("fresh ReqInfo Serving = %d %d %v %v, want -1 -1 false false", s, rp, h, ok)
	}
	// The slowest shard's winner is the critical path: it must win over a
	// faster attempt noted later.
	ri.NoteServe(0, 1, false, 5*time.Millisecond)
	ri.NoteServe(2, 0, true, 9*time.Millisecond)
	ri.NoteServe(1, 1, false, 2*time.Millisecond)
	s, rp, h, ok := ri.Serving()
	if !ok || s != 2 || rp != 0 || !h {
		t.Errorf("Serving = %d %d %v %v, want 2 0 true true", s, rp, h, ok)
	}
	// Nil safety.
	var nilri *ReqInfo
	nilri.NoteServe(0, 0, false, time.Millisecond)
	nilri.MarkRetained()
	if nilri.TraceID() != 0 || nilri.IsSampled() || nilri.Retained() {
		t.Error("nil ReqInfo not inert")
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(4)
	hits := 0
	for i := 0; i < 40; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 10 {
		t.Errorf("1-in-4 sampler hit %d of 40, want 10", hits)
	}
	if NewSampler(-1).Sample() {
		t.Error("disabled sampler sampled")
	}
	one := NewSampler(1)
	if !one.Sample() || !one.Sample() {
		t.Error("1-in-1 sampler must always sample")
	}
}

func TestTraceStoreEviction(t *testing.T) {
	ts := NewTraceStore(2)
	a, b, c := NewTraceID(), NewTraceID(), NewTraceID()
	ts.Put(RetainedTrace{ID: a, Query: "a"})
	ts.Put(RetainedTrace{ID: b, Query: "b"})
	ts.Put(RetainedTrace{ID: c, Query: "c"}) // evicts a
	if _, ok := ts.Get(a); ok {
		t.Error("oldest trace not evicted")
	}
	if rt, ok := ts.Get(c); !ok || rt.Query != "c" {
		t.Errorf("Get(c) = %+v, %v", rt, ok)
	}
	if ts.Len() != 2 || ts.Capacity() != 2 {
		t.Errorf("Len=%d Cap=%d, want 2, 2", ts.Len(), ts.Capacity())
	}
	// Re-retaining an ID maps it to the newer record; evicting the older
	// copy must leave it resolvable.
	ts.Put(RetainedTrace{ID: c, Query: "c2"}) // evicts b
	ts.Put(RetainedTrace{ID: a, Query: "a"})  // evicts the first c
	if rt, ok := ts.Get(c); !ok || rt.Query != "c2" {
		t.Errorf("Get(c) after its older copy was evicted = %+v, %v", rt, ok)
	}
}

// TestTraceStoreSlowView: the slow-query view lists only the traces
// marked slow, newest first, and counts the slow ones the ring evicted.
func TestTraceStoreSlowView(t *testing.T) {
	ts := NewTraceStore(3)
	if es, dropped := ts.Slow(); es == nil || len(es) != 0 || dropped != 0 {
		t.Errorf("empty store Slow() = %v, %d; want an empty non-nil list", es, dropped)
	}
	ts.Put(RetainedTrace{ID: NewTraceID(), Query: "sampled"})
	for _, q := range []string{"a", "b", "c", "d"} {
		ts.Put(RetainedTrace{ID: NewTraceID(), Query: q, Slow: true})
	}
	es, dropped := ts.Slow()
	if len(es) != 3 {
		t.Fatalf("len = %d, want 3 (ring capacity)", len(es))
	}
	// Newest first; the sampled trace and "a" were overwritten.
	if es[0].Query != "d" || es[1].Query != "c" || es[2].Query != "b" {
		t.Errorf("order = %q, %q, %q", es[0].Query, es[1].Query, es[2].Query)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1 (the sampled trace does not count)", dropped)
	}
	for _, e := range es {
		if rt, ok := ts.Get(e.ID); !ok || rt.Query != e.Query {
			t.Errorf("slow trace %q does not resolve by ID", e.Query)
		}
	}
	var nilStore *TraceStore
	nilStore.Put(RetainedTrace{Slow: true})
	if es, _ := nilStore.Slow(); len(es) != 0 || nilStore.Len() != 0 {
		t.Error("nil trace store misbehaved")
	}
}

func TestSLOBurnMath(t *testing.T) {
	s := NewSLO(SLOOptions{}) // defaults: 0.999 avail, 0.99 latency@250ms
	now := time.Now()
	// 1000 requests, 10 availability failures (1% bad = 10× the 0.1%
	// budget), 100 over the latency target (10% bad = 10× the 1% budget).
	for i := 0; i < 1000; i++ {
		ok := i >= 10
		lat := 10 * time.Millisecond
		if i < 100 {
			lat = 400 * time.Millisecond
		}
		s.Record(now, ok, lat)
	}
	rep := s.Report(now)
	if len(rep.Windows) != 2 || rep.Windows[0].Window != "5m" || rep.Windows[1].Window != "1h" {
		t.Fatalf("windows = %+v", rep.Windows)
	}
	for _, w := range rep.Windows {
		if w.Requests != 1000 || w.BadAvailability != 10 || w.BadLatency != 100 {
			t.Fatalf("%s counts = %+v", w.Window, w)
		}
		if w.AvailabilityBurn < 9.99 || w.AvailabilityBurn > 10.01 {
			t.Errorf("%s availability burn = %v, want 10", w.Window, w.AvailabilityBurn)
		}
		if w.LatencyBurn < 9.99 || w.LatencyBurn > 10.01 {
			t.Errorf("%s latency burn = %v, want 10", w.Window, w.LatencyBurn)
		}
	}
	if got := s.BurnRate("5m", "availability"); got < 9 {
		t.Errorf("BurnRate bridge = %v, want ~10", got)
	}

	// Requests age out of the 5m window but stay in the 1h one.
	later := now.Add(6 * time.Minute)
	rep = s.Report(later)
	if rep.Windows[0].Requests != 0 {
		t.Errorf("5m window still holds %d requests after 6 minutes", rep.Windows[0].Requests)
	}
	if rep.Windows[1].Requests != 1000 {
		t.Errorf("1h window lost requests: %d", rep.Windows[1].Requests)
	}

	// Nil engine: inert.
	var nils *SLO
	nils.Record(now, false, time.Second)
	if r := nils.Report(now); len(r.Windows) != 0 {
		t.Error("nil SLO not inert")
	}
}

func TestSLOReportRender(t *testing.T) {
	s := NewSLO(SLOOptions{})
	s.Record(time.Now(), true, time.Millisecond)
	var b strings.Builder
	WriteSLOReport(&b, s.Report(time.Now()))
	out := b.String()
	for _, want := range []string{"objectives:", "5m", "1h", "avail-burn"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestOpenMetricsExemplarRoundTrip: a histogram observation pinned with a
// trace ID must surface in the OpenMetrics exposition as a bucket exemplar
// that the in-tree parser reads back, and the shape checks must accept the
// whole payload. The default exposition must stay exemplar-free.
func TestOpenMetricsExemplarRoundTrip(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "help.", []float64{0.1, 1})
	id := NewTraceID()
	h.Observe(0.05)
	h.ObserveExemplar(0.5, id, time.Now())

	var om strings.Builder
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(om.String(), "# EOF\n") {
		t.Error("OpenMetrics exposition missing terminal # EOF")
	}
	exp, err := ParsePrometheus(strings.NewReader(om.String()))
	if err != nil {
		t.Fatalf("parse OpenMetrics output: %v\n%s", err, om.String())
	}
	if err := exp.CheckHistograms(); err != nil {
		t.Fatalf("CheckHistograms: %v\n%s", err, om.String())
	}
	found := false
	for _, s := range exp.Samples {
		if s.Name == "test_seconds_bucket" && s.Exemplar != nil {
			found = true
			if s.Exemplar.Labels["trace_id"] != id.String() {
				t.Errorf("exemplar trace_id = %q, want %q", s.Exemplar.Labels["trace_id"], id)
			}
			if s.Exemplar.Value != 0.5 {
				t.Errorf("exemplar value = %v, want 0.5", s.Exemplar.Value)
			}
			if !s.Exemplar.HasTS {
				t.Error("exemplar missing timestamp")
			}
		}
	}
	if !found {
		t.Fatalf("no bucket exemplar in OpenMetrics output:\n%s", om.String())
	}

	// The default exposition carries no exemplars — byte-compatible with
	// pre-exemplar scrapes.
	var plain strings.Builder
	if err := r.WritePrometheus(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "#  {") || strings.Contains(plain.String(), "} # {") ||
		strings.Contains(plain.String(), "trace_id") {
		t.Errorf("default exposition leaked exemplars:\n%s", plain.String())
	}
}

// TestCheckHistogramsRejects: the CI gate must fail on the histogram
// malformations it exists to catch.
func TestCheckHistogramsRejects(t *testing.T) {
	cases := []struct {
		name, payload string
	}{
		{"missing +Inf", `# TYPE h histogram
h_bucket{le="1"} 3
h_count 3
h_sum 1.5
`},
		{"non-monotonic buckets", `# TYPE h histogram
h_bucket{le="0.1"} 5
h_bucket{le="1"} 3
h_bucket{le="+Inf"} 5
h_count 5
h_sum 1.5
`},
		{"+Inf disagrees with count", `# TYPE h histogram
h_bucket{le="1"} 3
h_bucket{le="+Inf"} 4
h_count 9
h_sum 1.5
`},
		{"exemplar missing trace_id", `# TYPE h histogram
h_bucket{le="1"} 3 # {span="x"} 0.5 1.0
h_bucket{le="+Inf"} 3
h_count 3
h_sum 1.5
`},
		{"exemplar outside bucket range", `# TYPE h histogram
h_bucket{le="0.1"} 1
h_bucket{le="1"} 3 # {trace_id="00000000000000ab"} 0.05 1.0
h_bucket{le="+Inf"} 3
h_count 3
h_sum 1.5
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exp, err := ParsePrometheus(strings.NewReader(tc.payload))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if err := exp.CheckHistograms(); err == nil {
				t.Errorf("CheckHistograms accepted %s", tc.name)
			}
		})
	}
	// Malformed exemplar syntax must fail at parse time.
	bad := `# TYPE h histogram
h_bucket{le="1"} 3 # notbraces 0.5
h_bucket{le="+Inf"} 3
`
	if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
		t.Error("parser accepted malformed exemplar syntax")
	}
}
