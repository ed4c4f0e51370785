package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Sampler makes the deterministic 1-in-N span-tree retention decision.
// Sampling controls only the expensive artifact — the allocated span tree
// and its retention — never the flight-recorder events, which are
// recorded for every request.
type Sampler struct {
	every uint64
	n     atomic.Uint64
}

// NewSampler samples every n-th request: n == 1 samples everything,
// n <= 0 returns nil (sampling off; a nil sampler never samples).
func NewSampler(n int) *Sampler {
	if n <= 0 {
		return nil
	}
	return &Sampler{every: uint64(n)}
}

// Sample reports whether this request should retain its span tree.
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	return s.n.Add(1)%s.every == 0
}

// RetainedTrace is one retained request's full evidence: the span tree
// plus the envelope (query, outcome, serving attribution) a debugging
// operator needs without cross-referencing. GET /debug/trace/<id>
// resolves a trace ID — scraped off an exemplar, an event dump or the
// slow-query view — to this record.
type RetainedTrace struct {
	ID             TraceID   `json:"trace_id"`
	Time           time.Time `json:"time"`
	Query          string    `json:"query"`
	DurationNS     int64     `json:"duration_ns"`
	Degraded       bool      `json:"degraded,omitempty"`
	DegradedReason string    `json:"degraded_reason,omitempty"`
	// Shard/Replica/Hedged name the serving attempt on the request's
	// critical path; -1/-1/false on a single-engine backend.
	Shard   int  `json:"shard"`
	Replica int  `json:"replica"`
	Hedged  bool `json:"hedged"`
	// Slow marks a query whose wall time met the slow-query threshold;
	// GET /debug/slowlog lists exactly these.
	Slow  bool      `json:"slow,omitempty"`
	Trace *SpanData `json:"trace,omitempty"`
}

// TraceStore is the one retention store: the last capacity retained
// traces — sampled, explained or slow — resolvable by trace ID, with the
// slow ones also listed by Slow. A ring bounds memory; the index map
// follows evictions.
type TraceStore struct {
	mu          sync.Mutex
	ring        ring[RetainedTrace]
	byID        map[TraceID]int
	slowDropped uint64 // slow traces evicted
}

// TraceCapacity is the retention window of a serving process's store.
const TraceCapacity = 512

// NewTraceStore builds a store retaining the last capacity (> 0) traces.
func NewTraceStore(capacity int) *TraceStore {
	return &TraceStore{ring: newRing[RetainedTrace](capacity), byID: make(map[TraceID]int, capacity)}
}

// Put retains one trace, evicting the oldest when full. Nil-safe.
func (ts *TraceStore) Put(rt RetainedTrace) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	slot, old := ts.ring.put(rt)
	// A trace ID retained twice resolves to its newest record; evicting
	// the older one must not unmap it.
	if i, ok := ts.byID[old.ID]; ok && i == slot {
		delete(ts.byID, old.ID)
	}
	if old.Slow {
		ts.slowDropped++
	}
	ts.byID[rt.ID] = slot
	ts.mu.Unlock()
}

// Slow returns the retained traces marked slow, newest first, and how
// many slow traces the ring has evicted.
func (ts *TraceStore) Slow() (entries []RetainedTrace, dropped uint64) {
	entries = []RetainedTrace{}
	if ts == nil {
		return entries, 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.ring.newestFirst(func(rt *RetainedTrace) bool {
		if rt.Slow {
			entries = append(entries, *rt)
		}
		return true
	})
	return entries, ts.slowDropped
}

// Get resolves a trace ID to its retained record.
func (ts *TraceStore) Get(id TraceID) (RetainedTrace, bool) {
	if ts == nil {
		return RetainedTrace{}, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	i, ok := ts.byID[id]
	if !ok {
		return RetainedTrace{}, false
	}
	return ts.ring.buf[i], true
}

// Len returns the number of traces currently retained.
func (ts *TraceStore) Len() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.ring.len()
}

// Capacity returns the retention window size.
func (ts *TraceStore) Capacity() int {
	if ts == nil {
		return 0
	}
	return len(ts.ring.buf)
}
