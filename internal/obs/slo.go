package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// The SLO engine turns the request stream into burn rates: for each
// objective (availability, latency) and each window (5m, 1h), the
// fraction of the error budget being consumed, normalized so 1.0 means
// "spending exactly the budget". Burn > 1 sustained over the window
// exhausts the objective's budget proportionally faster — the standard
// multi-window burn-rate alerting input. Windows are bucketed rings
// advanced on record/report, so the engine is O(buckets) memory and O(1)
// per request, with no background goroutine to leak.

// SLOOptions declares the objectives. Zero values take the defaults.
type SLOOptions struct {
	// AvailabilityObjective is the fraction of requests that must not
	// fail (5xx, including shed). Default 0.999.
	AvailabilityObjective float64
	// LatencyObjective is the fraction of requests that must finish
	// within LatencyTarget. Default 0.99.
	LatencyObjective float64
	// LatencyTarget is the latency objective's threshold. Default 250ms.
	LatencyTarget time.Duration
}

func (o SLOOptions) withDefaults() SLOOptions {
	if o.AvailabilityObjective <= 0 || o.AvailabilityObjective >= 1 {
		o.AvailabilityObjective = 0.999
	}
	if o.LatencyObjective <= 0 || o.LatencyObjective >= 1 {
		o.LatencyObjective = 0.99
	}
	if o.LatencyTarget <= 0 {
		o.LatencyTarget = 250 * time.Millisecond
	}
	return o
}

// sloBucket is one time slice of a burn window.
type sloBucket struct {
	total    uint64
	badAvail uint64
	badLat   uint64
}

// burnWindow is one bucketed ring: width = bucketDur × len(buckets).
type burnWindow struct {
	name      string
	bucketDur time.Duration
	buckets   []sloBucket
	lastIdx   int64 // absolute bucket index the cursor sits on
}

func newBurnWindow(name string, bucketDur time.Duration, n int) *burnWindow {
	return &burnWindow{name: name, bucketDur: bucketDur, buckets: make([]sloBucket, n)}
}

// advance zeroes buckets between the cursor and now's bucket. Caller
// holds the SLO mutex.
func (w *burnWindow) advance(now time.Time) int64 {
	idx := now.UnixNano() / int64(w.bucketDur)
	if w.lastIdx == 0 {
		w.lastIdx = idx
	}
	for w.lastIdx < idx {
		w.lastIdx++
		w.buckets[w.lastIdx%int64(len(w.buckets))] = sloBucket{}
	}
	return idx
}

// SLO accumulates request outcomes into multi-window burn-rate rings.
// All methods are nil-safe.
type SLO struct {
	opts SLOOptions

	mu   sync.Mutex
	wins []*burnWindow
}

// NewSLO builds the engine with the standard 5m (30 × 10s buckets) and
// 1h (60 × 1m buckets) windows.
func NewSLO(opts SLOOptions) *SLO {
	return &SLO{
		opts: opts.withDefaults(),
		wins: []*burnWindow{
			newBurnWindow("5m", 10*time.Second, 30),
			newBurnWindow("1h", time.Minute, 60),
		},
	}
}

// Options returns the effective (defaulted) objectives.
func (s *SLO) Options() SLOOptions {
	if s == nil {
		return SLOOptions{}.withDefaults()
	}
	return s.opts
}

// Record accounts one finished request: ok is the availability outcome
// (false for 5xx and shed), latency the wall time measured against the
// latency objective.
func (s *SLO) Record(now time.Time, ok bool, latency time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for _, w := range s.wins {
		idx := w.advance(now)
		b := &w.buckets[idx%int64(len(w.buckets))]
		b.total++
		if !ok {
			b.badAvail++
		}
		if latency > s.opts.LatencyTarget {
			b.badLat++
		}
	}
	s.mu.Unlock()
}

// SLOWindow is one window's burn-rate summary.
type SLOWindow struct {
	Window          string `json:"window"`
	Requests        uint64 `json:"requests"`
	BadAvailability uint64 `json:"bad_availability"`
	BadLatency      uint64 `json:"bad_latency"`
	// Burn rates: (bad fraction) / (1 - objective). 1.0 = consuming the
	// error budget exactly at the sustainable rate; 0 when idle.
	AvailabilityBurn float64 `json:"availability_burn"`
	LatencyBurn      float64 `json:"latency_burn"`
}

// SLOReport is the full burn-rate snapshot, as served on /healthz under
// "slo" and rendered by `xrefine slo`.
type SLOReport struct {
	AvailabilityObjective float64     `json:"availability_objective"`
	LatencyObjective      float64     `json:"latency_objective"`
	LatencyTargetMS       float64     `json:"latency_target_ms"`
	Windows               []SLOWindow `json:"windows"`
}

// Report snapshots every window's burn rates as of now.
func (s *SLO) Report(now time.Time) SLOReport {
	if s == nil {
		return SLOReport{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := SLOReport{
		AvailabilityObjective: s.opts.AvailabilityObjective,
		LatencyObjective:      s.opts.LatencyObjective,
		LatencyTargetMS:       float64(s.opts.LatencyTarget) / 1e6,
	}
	for _, w := range s.wins {
		w.advance(now)
		var sum sloBucket
		for _, b := range w.buckets {
			sum.total += b.total
			sum.badAvail += b.badAvail
			sum.badLat += b.badLat
		}
		win := SLOWindow{
			Window:          w.name,
			Requests:        sum.total,
			BadAvailability: sum.badAvail,
			BadLatency:      sum.badLat,
		}
		if sum.total > 0 {
			win.AvailabilityBurn = (float64(sum.badAvail) / float64(sum.total)) / (1 - s.opts.AvailabilityObjective)
			win.LatencyBurn = (float64(sum.badLat) / float64(sum.total)) / (1 - s.opts.LatencyObjective)
		}
		rep.Windows = append(rep.Windows, win)
	}
	return rep
}

// BurnRate returns one window's burn rate by name ("5m", "1h") for the
// given objective ("availability" or "latency") — the GaugeFunc bridge.
func (s *SLO) BurnRate(window, objective string) float64 {
	rep := s.Report(time.Now())
	for _, w := range rep.Windows {
		if w.Window != window {
			continue
		}
		if objective == "latency" {
			return w.LatencyBurn
		}
		return w.AvailabilityBurn
	}
	return 0
}

// WriteSLOReport pretty-prints a report for terminals — the renderer
// behind `xrefine slo`.
func WriteSLOReport(w io.Writer, r SLOReport) {
	fmt.Fprintf(w, "objectives: availability %.4g, latency %.4g within %gms\n",
		r.AvailabilityObjective, r.LatencyObjective, r.LatencyTargetMS)
	fmt.Fprintf(w, "%-8s %10s %12s %12s %12s %12s\n",
		"window", "requests", "bad-avail", "bad-latency", "avail-burn", "lat-burn")
	for _, win := range r.Windows {
		fmt.Fprintf(w, "%-8s %10d %12d %12d %12.3f %12.3f\n",
			win.Window, win.Requests, win.BadAvailability, win.BadLatency,
			win.AvailabilityBurn, win.LatencyBurn)
	}
}
