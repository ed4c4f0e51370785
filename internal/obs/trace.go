package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Per-query tracing. A trace is a tree of spans — one per pipeline stage —
// carried through the query via context.Context. Tracing is strictly
// opt-in per query: with no trace in the context, StartSpan returns the
// context unchanged and a nil *Span whose every method no-ops, so the
// untraced hot path pays one context value lookup per stage and nothing
// else. Spans come from a sync.Pool and return to it on Trace.Release, so
// a traced steady-state server does not allocate a fresh tree per query.
//
// Concurrency: one span may receive attribute updates and child starts
// from several goroutines (the parallel partition workers), so span
// mutation takes a per-span mutex. That cost exists only on traced
// queries.

type spanKey struct{}

// Span is one timed stage of a query. The zero value is not used;
// obtain spans from NewTrace/StartSpan. A nil *Span is valid everywhere.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	duration time.Duration
	attrs    []SpanAttr
	children []*Span
}

// SpanAttr is one key/value annotation on a span. Exactly one of Int/Str
// is meaningful, per IsStr.
type SpanAttr struct {
	Key   string
	Int   int64
	Str   string
	IsStr bool
}

var spanPool = sync.Pool{New: func() any { return new(Span) }}

func newSpan(name string) *Span {
	s := spanPool.Get().(*Span)
	s.name = name
	s.start = time.Now()
	s.duration = 0
	s.attrs = s.attrs[:0]
	s.children = s.children[:0]
	return s
}

// NewTrace arms tracing on ctx: it returns a derived context carrying a
// fresh root span named name, plus the root. The caller must End the root
// and, once the tree has been rendered (Data), should Release it.
func NewTrace(ctx context.Context, name string) (context.Context, *Span) {
	root := newSpan(name)
	return context.WithValue(ctx, spanKey{}, root), root
}

// StartSpan begins a child span of the span carried by ctx. When ctx
// carries no trace it returns ctx unchanged and a nil span — the entire
// no-trace cost of an instrumented stage.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	s := parent.StartChild(name)
	return context.WithValue(ctx, spanKey{}, s), s
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartChild begins a child span directly on s — the hook for code that
// threads spans explicitly (the refine algorithms) rather than through a
// context. Nil-safe: a nil parent returns a nil child.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stamps the span's duration. Ending twice keeps the first stamp.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.duration == 0 {
		s.duration = time.Since(s.start)
	}
	s.mu.Unlock()
}

// SetInt sets an integer attribute, overwriting any previous value.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Int, s.attrs[i].IsStr = v, false
			return
		}
	}
	s.attrs = append(s.attrs, SpanAttr{Key: key, Int: v})
}

// AddInt accumulates into an integer attribute — safe from concurrent
// goroutines, which is how the parallel workers aggregate shared-stage
// totals (e.g. SLCA nanoseconds) onto one span.
func (s *Span) AddInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Int += v
			return
		}
	}
	s.attrs = append(s.attrs, SpanAttr{Key: key, Int: v})
}

// SetStr sets a string attribute, overwriting any previous value.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Str, s.attrs[i].IsStr = v, true
			return
		}
	}
	s.attrs = append(s.attrs, SpanAttr{Key: key, Str: v, IsStr: true})
}

// SpanData is the immutable snapshot of a span tree — what the explain
// JSON, the pretty-printer, and the trace store consume. Durations are
// nanoseconds.
type SpanData struct {
	Name       string         `json:"name"`
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*SpanData    `json:"children,omitempty"`
}

// Data snapshots the span tree. Unfinished spans report their elapsed
// time so far. Attribute keys are sorted for deterministic rendering.
func (s *Span) Data() *SpanData {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	d := &SpanData{Name: s.name, DurationNS: int64(s.duration)}
	if s.duration == 0 {
		d.DurationNS = int64(time.Since(s.start))
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			if a.IsStr {
				d.Attrs[a.Key] = a.Str
			} else {
				d.Attrs[a.Key] = a.Int
			}
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.Data())
	}
	return d
}

// Release returns the span and its descendants to the pool. The caller
// must not touch the span afterwards; snapshot with Data first.
func (s *Span) Release() {
	if s == nil {
		return
	}
	s.mu.Lock()
	children := append([]*Span(nil), s.children...)
	s.children = s.children[:0]
	s.attrs = s.attrs[:0]
	s.mu.Unlock()
	for _, c := range children {
		c.Release()
	}
	spanPool.Put(s)
}

// WriteTree pretty-prints a span tree for terminals: one line per span
// with duration and attributes, children indented.
func WriteTree(w io.Writer, d *SpanData) {
	writeTreeIndent(w, d, 0)
}

func writeTreeIndent(w io.Writer, d *SpanData, depth int) {
	if d == nil {
		return
	}
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(w, "%s%-24s %10s%s\n", indent, d.Name,
		time.Duration(d.DurationNS).Round(time.Microsecond), formatAttrs(d.Attrs))
	for _, c := range d.Children {
		writeTreeIndent(w, c, depth+1)
	}
}

func formatAttrs(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("  ")
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", k, attrs[k])
	}
	return b.String()
}
