package obs

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is the always-on half of the tracing story. Span
// trees are sampled — they allocate — but every request is stamped with a
// TraceID at admission and every hop it takes (shard fan-out, replica
// attempts, hedges, breaker trips, update commits, budget expiry) deposits a
// fixed-shape Event into a preallocated ring. Recording is a mutex
// acquisition and a struct store: zero allocations, so it can sit on the
// non-sampled hot path under the same ≤2-allocs/query guard as the
// counters. GET /debug/events dumps the ring; a sampled trace's span tree
// is retained in a TraceStore and resolved at GET /debug/trace/<id>.

// TraceID identifies one request end to end. Zero means "no trace ID" —
// a query that entered below the HTTP admission layer.
type TraceID uint64

// String renders the ID the way it appears in exemplars, event dumps and
// debug URLs: 16 lowercase hex digits.
func (t TraceID) String() string {
	var buf [16]byte
	const hexdigits = "0123456789abcdef"
	for i := 0; i < 16; i++ {
		buf[15-i] = hexdigits[(uint64(t)>>(4*i))&0xf]
	}
	return string(buf[:])
}

// MarshalText renders the hex form, so TraceID fields JSON-encode as the
// same string /debug/trace/<id> accepts.
func (t TraceID) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// ParseTraceID parses the hex form accepted by the debug surfaces.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || v == 0 {
		return 0, fmt.Errorf("obs: bad trace id %q", s)
	}
	return TraceID(v), nil
}

// traceSeq feeds NewTraceID; traceSeed decorrelates processes started in
// the same nanosecond from each other's ID sequences.
var (
	traceSeq  atomic.Uint64
	traceSeed = uint64(time.Now().UnixNano())
)

// NewTraceID mints a process-unique trace ID: a counter diffused through
// the splitmix64 finalizer, so consecutive requests get well-spread IDs
// without coordination or allocation.
func NewTraceID() TraceID {
	z := traceSeq.Add(1)*0x9e3779b97f4a7c15 + traceSeed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // zero is the "no trace" sentinel
	}
	return TraceID(z)
}

// EventKind enumerates the fixed event taxonomy. KindAny (zero) is the
// filter wildcard, never recorded.
type EventKind uint8

const (
	KindAny EventKind = iota
	// EvAdmit / EvFinish bracket one HTTP request on a query route.
	EvAdmit
	EvFinish
	// EvQuery is one engine query completing.
	EvQuery
	// EvAttemptStart/End/Cancel are one replica scan attempt's lifecycle;
	// a cancelled attempt is a hedge loser or a query-wide abort.
	EvAttemptStart
	EvAttemptEnd
	EvAttemptCancel
	// EvHedgeFire is a hedge launching; EvHedgeWin is the hedge finishing
	// before the primary attempt.
	EvHedgeFire
	EvHedgeWin
	// EvRetry is a sequential failover retry after a failed attempt.
	EvRetry
	// EvBreakerOpen is a replica's circuit breaker tripping.
	EvBreakerOpen
	// EvQuarantine / EvReconcile are epoch reconciliation: a replica held
	// out of reads on an epoch mismatch, and one caught up and rejoined.
	EvQuarantine
	EvReconcile
	// EvCommit is one update batch durably committed by its store commit;
	// N is the epoch.
	EvCommit
	// EvBudgetExpiry is a query degrading on a deadline or posting budget;
	// Note carries the degradation reason.
	EvBudgetExpiry
)

var kindNames = [...]string{
	KindAny:         "any",
	EvAdmit:         "admit",
	EvFinish:        "finish",
	EvQuery:         "query",
	EvAttemptStart:  "attempt-start",
	EvAttemptEnd:    "attempt-end",
	EvAttemptCancel: "attempt-cancel",
	EvHedgeFire:     "hedge-fire",
	EvHedgeWin:      "hedge-win",
	EvRetry:         "retry",
	EvBreakerOpen:   "breaker-open",
	EvQuarantine:    "quarantine",
	EvReconcile:     "reconcile",
	EvCommit:        "commit",
	EvBudgetExpiry:  "budget-expiry",
}

// String names the kind as it appears in event dumps and kind= filters.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ParseEventKind resolves a kind= filter value; KindAny on "".
func ParseEventKind(s string) (EventKind, error) {
	if s == "" {
		return KindAny, nil
	}
	for k, name := range kindNames {
		if name == s {
			return EventKind(k), nil
		}
	}
	return KindAny, fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one fixed-shape flight-recorder record. Shard and Replica are
// -1 when the event is not scoped to one; Note is always a small constant
// vocabulary (route names, degradation reasons, error classes), never a
// per-event formatted string, so recording allocates nothing.
type Event struct {
	Seq     uint64
	TimeNS  int64 // unix nanoseconds, stamped by Record
	Trace   TraceID
	Kind    EventKind
	Shard   int
	Replica int
	Hedge   bool
	DurNS   int64 // duration payload; 0 when not applicable
	N       int64 // numeric payload: fan-out width, epoch, status code
	Note    string
}

// EventView is the JSON rendering of one event, shared by /debug/events
// and /debug/trace/<id>.
type EventView struct {
	Seq     uint64  `json:"seq"`
	Time    string  `json:"time"`
	TraceID TraceID `json:"trace_id"`
	Kind    string  `json:"kind"`
	Shard   int     `json:"shard"`
	Replica int     `json:"replica"`
	Hedged  bool    `json:"hedged"`
	DurNS   int64   `json:"duration_ns"`
	N       int64   `json:"n"`
	Note    string  `json:"note,omitempty"`
}

// View renders the event for the debug surfaces.
func (e Event) View() EventView {
	return EventView{
		Seq:     e.Seq,
		Time:    time.Unix(0, e.TimeNS).UTC().Format(time.RFC3339Nano),
		TraceID: e.Trace,
		Kind:    e.Kind.String(),
		Shard:   e.Shard,
		Replica: e.Replica,
		Hedged:  e.Hedge,
		DurNS:   e.DurNS,
		N:       e.N,
		Note:    e.Note,
	}
}

// FlightRecorder is the always-on structured event ring. All methods are
// nil-safe; Record never allocates after construction.
type FlightRecorder struct {
	mu   sync.Mutex
	ring ring[Event]
	seq  uint64
}

// flightCapacity is the ring size Registry.Flight uses.
const flightCapacity = 4096

// NewFlightRecorder builds a recorder holding the last capacity (> 0)
// events.
func NewFlightRecorder(capacity int) *FlightRecorder {
	return &FlightRecorder{ring: newRing[Event](capacity)}
}

// Record deposits one event, stamping its sequence number and time.
func (f *FlightRecorder) Record(e Event) {
	if f == nil {
		return
	}
	now := time.Now().UnixNano()
	f.mu.Lock()
	f.seq++
	e.Seq = f.seq
	e.TimeNS = now
	f.ring.put(e)
	f.mu.Unlock()
}

// EventFilter selects events from the ring. Zero values match everything;
// set HasShard to filter on Shard (including -1, the unscoped sentinel).
type EventFilter struct {
	Trace    TraceID
	Kind     EventKind
	Shard    int
	HasShard bool
	Limit    int // max events returned, newest first; 0 = all retained
}

// Events returns the retained events matching the filter, newest first.
func (f *FlightRecorder) Events(filter EventFilter) []Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []Event
	f.ring.newestFirst(func(e *Event) bool {
		if (filter.Trace == 0 || e.Trace == filter.Trace) &&
			(filter.Kind == KindAny || e.Kind == filter.Kind) &&
			(!filter.HasShard || e.Shard == filter.Shard) {
			out = append(out, *e)
		}
		return filter.Limit <= 0 || len(out) < filter.Limit
	})
	return out
}

// Len returns the number of events currently retained.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.len()
}

// Dropped returns how many events were overwritten after the ring filled.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.dropped
}

// Capacity returns the ring size (0 for a nil recorder).
func (f *FlightRecorder) Capacity() int {
	if f == nil {
		return 0
	}
	return len(f.ring.buf)
}

// Flight returns the registry's flight recorder, creating it on first
// use. Every component sharing the registry (engine, router, HTTP server)
// shares the recorder, so one ring holds the whole request path. Nil
// registries return a nil recorder whose Record no-ops.
func (r *Registry) Flight() *FlightRecorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.flight == nil {
		r.flight = NewFlightRecorder(flightCapacity)
	}
	return r.flight
}

// ReqInfo is the per-request identity and attribution record carried
// through the context: the trace ID every span, event and exemplar of the
// request stamps, the sampling decision, and the serving attempt the
// response was ultimately built from (filled in by the replica fan-out,
// read back when the trace is retained). One ReqInfo is allocated per
// request at HTTP admission; queries entered below that layer see a nil
// ReqInfo and every method no-ops.
type ReqInfo struct {
	Trace TraceID
	// Sampled marks requests whose span tree is being retained; the
	// replica fan-out uses it to attach exemplars.
	Sampled bool

	mu       sync.Mutex
	shard    int
	replica  int
	hedged   bool
	durNS    int64
	served   bool
	retained bool
}

// NewReqInfo allocates a request record with a fresh trace ID and no
// serving attribution (shard/replica -1).
func NewReqInfo() *ReqInfo {
	return &ReqInfo{Trace: NewTraceID(), shard: -1, replica: -1}
}

// Reset re-arms ri for a new request with a fresh trace ID, clearing the
// sampling decision and serving attribution. It exists for serving loops
// that handle requests strictly one at a time per connection (the binary
// wire protocol): one ReqInfo per connection, reset per request, keeps the
// steady-state request path allocation-free. It must never be called while
// a request using ri is still in flight.
func (ri *ReqInfo) Reset() {
	if ri == nil {
		return
	}
	ri.mu.Lock()
	ri.Trace = NewTraceID()
	ri.Sampled = false
	ri.shard, ri.replica = -1, -1
	ri.hedged, ri.served, ri.retained = false, false, false
	ri.durNS = 0
	ri.mu.Unlock()
}

type reqInfoKey struct{}

// WithReqInfo returns a context carrying ri.
func WithReqInfo(ctx context.Context, ri *ReqInfo) context.Context {
	return context.WithValue(ctx, reqInfoKey{}, ri)
}

// ReqInfoFromContext returns the request record carried by ctx, or nil.
func ReqInfoFromContext(ctx context.Context) *ReqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*ReqInfo)
	return ri
}

// TraceIDFromContext returns the request's trace ID, or zero when the
// context carries none — one context lookup, no allocation.
func TraceIDFromContext(ctx context.Context) TraceID {
	ri, _ := ctx.Value(reqInfoKey{}).(*ReqInfo)
	if ri == nil {
		return 0
	}
	return ri.Trace
}

// TraceID returns ri's trace ID; zero for nil.
func (ri *ReqInfo) TraceID() TraceID {
	if ri == nil {
		return 0
	}
	return ri.Trace
}

// IsSampled reports the sampling decision; false for nil.
func (ri *ReqInfo) IsSampled() bool { return ri != nil && ri.Sampled }

// NoteServe records one winning scan attempt. Across a scatter-gather
// query the slowest shard's winner is kept — the attempt that set the
// request's critical path is the one worth naming in its retained trace.
func (ri *ReqInfo) NoteServe(shard, replica int, hedged bool, d time.Duration) {
	if ri == nil {
		return
	}
	ri.mu.Lock()
	if !ri.served || int64(d) > ri.durNS {
		ri.shard, ri.replica, ri.hedged, ri.durNS = shard, replica, hedged, int64(d)
		ri.served = true
	}
	ri.mu.Unlock()
}

// Serving returns the recorded serving attempt; ok is false (and
// shard/replica -1) when no replica fan-out attributed one.
func (ri *ReqInfo) Serving() (shard, replica int, hedged, ok bool) {
	if ri == nil {
		return -1, -1, false, false
	}
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.shard, ri.replica, ri.hedged, ri.served
}

// MarkRetained records that the request's span tree was deposited in the
// trace store, so the latency histogram may exemplar-link its trace ID.
func (ri *ReqInfo) MarkRetained() {
	if ri == nil {
		return
	}
	ri.mu.Lock()
	ri.retained = true
	ri.mu.Unlock()
}

// Retained reports whether the span tree was deposited in the trace store.
func (ri *ReqInfo) Retained() bool {
	if ri == nil {
		return false
	}
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.retained
}
