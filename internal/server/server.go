// Package server holds the one request Pipeline every serving surface runs
// on (pipeline.go) and its HTTP codec, a small JSON API. Handlers are plain
// net/http so the server embeds anywhere.
//
//	GET /search?q=online+databse&k=3&explain=1
//	GET /narrow?q=database&max=50&k=3
//	GET /complete?q=datab&k=8
//	POST /update   {"ops":[{"op":"insert","parent":"0","xml":"<paper>...</paper>"}]}
//	GET /healthz
//	GET /metrics   (?format=openmetrics adds exemplars)
//	GET /debug/slowlog   (when Config.SlowLogThreshold > 0)
//	GET /debug/events?trace_id=&shard=&kind=&limit=
//	GET /debug/trace/<trace-id>
//	GET /debug/pprof/   (when Config.EnablePprof)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/index"
	"xrefine/internal/mutate"
	"xrefine/internal/narrow"
	"xrefine/internal/obs"
	"xrefine/internal/refine"
)

// Config tunes the pipeline's protective edges and the observability
// around it. The zero value disables every edge, which matches the
// pre-hardening behavior.
type Config struct {
	// Timeout bounds each request's handling when positive: the request
	// context gets this deadline, so a query that overruns returns its
	// partial results flagged degraded (the engine's deadline semantics)
	// instead of holding the connection.
	Timeout time.Duration
	// MaxInFlight caps concurrently-handled requests, over every surface
	// together, when positive. Requests beyond the cap are shed
	// immediately (HTTP 503 + Retry-After, wire StatusRetry) rather than
	// queueing without bound. /healthz, /metrics, and the /debug surfaces
	// are exempt — probes and scrapes must keep working under saturation,
	// when they matter most.
	MaxInFlight int
	// SlowLogThreshold arms the slow-query view when positive: every
	// query is traced, and those whose wall time meets the threshold are
	// retained in the trace store marked slow, listed at GET /debug/slowlog.
	SlowLogThreshold time.Duration
	// EnablePprof mounts net/http/pprof handlers under /debug/pprof/ on
	// the server's own mux (never the default mux), bypassing the
	// admission gate and timeout like the other debug surfaces.
	EnablePprof bool
	// TraceSampleEvery retains every n-th query's span tree in the trace
	// store (the last obs.TraceCapacity retained traces resolve at GET
	// /debug/trace/<id>) and links it from the latency histograms as an
	// OpenMetrics exemplar. 0 means the default (64); negative disables
	// sampling — explain=1 and slow queries still retain their traces.
	TraceSampleEvery int
	// SLO configures the burn-rate engine's objectives; the zero value
	// takes the defaults (99.9% availability, 99% under 250ms).
	SLO obs.SLOOptions
}

// Backend is what the pipeline serves: the query, update and
// introspection surface of one corpus. *core.Engine implements it
// directly; the shard router implements it scatter-gather across several
// engines. Every method must be safe for concurrent use.
type Backend interface {
	QueryTermsCtx(ctx context.Context, terms []string, strategy core.Strategy, k, parallelism int) (*core.Response, error)
	Narrow(ctx context.Context, q string, opts *narrow.Options) (*narrow.Outcome, error)
	Complete(partial string, k int) []string
	Apply(b *mutate.Batch) (*core.ApplyResult, error)
	UpdateStats() core.UpdateStats
	// Health reports the worker bound and what only some deployments
	// have — shard epochs, the replica table, the storage-engine
	// snapshot — for /healthz.
	Health() core.HealthExtras
	Index() *index.Index
	// AppendSnippetJSON appends a match preview to dst as a JSON string
	// literal; ok is false, and dst unchanged, when no source document is
	// available and the snippet field should be omitted.
	AppendSnippetJSON(dst []byte, m refine.Match, max int) ([]byte, bool)
	// Metrics is the backend's one counter book: /metrics exposes it and
	// /healthz reads its counters from a snapshot of it.
	Metrics() *obs.Registry
}

// healthCounters maps each counter key of /healthz to the registry family
// it reads, summed over the family's label series.
var healthCounters = [...]struct{ key, family string }{
	{"queries", "xrefine_engine_queries_total"},
	{"refined", "xrefine_engine_refined_total"},
	{"degraded", "xrefine_engine_degraded_total"},
	{"applied_batches", "xrefine_mutate_applied_batches_total"},
	{"applied_ops", "xrefine_mutate_applied_ops_total"},
}

// Server is the HTTP codec over a Pipeline: handlers turn a URL or a JSON
// body into a request, the pipeline answers it, and the Outcome goes back
// out as JSON. The operational surfaces (/healthz, /metrics, /debug/*)
// read the pipeline's state without entering it.
type Server struct {
	eng  Backend
	mux  *http.ServeMux
	pipe *Pipeline
	sf   *Surface
}

// New builds the process's request pipeline around a backend — a single
// engine or a shard router — and the HTTP server over it. Further
// surfaces (wire.NewServer) are built over Pipeline().
func New(eng Backend, cfg Config) *Server {
	s := &Server{eng: eng, mux: http.NewServeMux(), pipe: newPipeline(eng, cfg)}
	s.sf = s.pipe.Surface("http", "route")
	route := func(method, path string, h func(context.Context, *http.Request) (Outcome, any)) {
		rt := s.sf.Route(path, path)
		s.mux.HandleFunc(path, s.recovered(func(w http.ResponseWriter, r *http.Request) {
			// Only /update reads a body; bounding it here keeps the
			// handlers free of the ResponseWriter.
			r.Body = http.MaxBytesReader(w, r.Body, maxUpdateBody)
			var body any
			out := s.pipe.do(r.Context(), rt, 0, func(ctx context.Context) (out Outcome) {
				if r.Method != method {
					return fail(http.StatusMethodNotAllowed, errors.New(method+" only"))
				}
				out, body = h(ctx, r)
				return out
			})
			if out.Code != http.StatusOK {
				if out.RetryAfter > 0 {
					w.Header().Set("Retry-After", strconv.Itoa(out.RetryAfter))
				}
				httpError(w, out.Code, out.Err)
				return
			}
			writeJSON(w, body)
		}))
	}
	route(http.MethodGet, "/search", s.handleSearch)
	route(http.MethodGet, "/narrow", s.handleNarrow)
	route(http.MethodGet, "/complete", s.handleComplete)
	// Updates share the query routes' edge protection: the admission gate
	// bounds writers and readers together (a write burst must not starve
	// probes), and the deadline caps a runaway batch. Writers additionally
	// serialize on the engine's own apply lock.
	route(http.MethodPost, "/update", s.handleUpdate)
	// The operational surfaces below bypass the pipeline on purpose:
	// probes and scrapes must answer while the query path is saturated or
	// wedged.
	s.mux.HandleFunc("/healthz", s.recovered(s.handleHealth))
	s.mux.HandleFunc("/metrics", s.recovered(s.handleMetrics))
	s.mux.HandleFunc("/debug/slowlog", s.recovered(s.handleSlowlog))
	s.mux.HandleFunc("/debug/events", s.recovered(s.handleEvents))
	s.mux.HandleFunc("/debug/trace/", s.recovered(s.handleTrace))
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Pipeline returns the request pipeline this server was built over — what
// every other serving surface of the process must share.
func (s *Server) Pipeline() *Pipeline { return s.pipe }

// recovered wraps a handler with panic containment for what runs outside
// the pipeline — the ops surfaces and response encoding: a panicking
// request becomes a 500 for that request alone.
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.sf.Recovered(r.Method+" "+r.URL.Path, v)
				// Headers may already be out; WriteHeader then is a
				// no-op warning, which is the best we can do.
				httpError(w, http.StatusInternalServerError, errInternal)
			}
		}()
		h(w, r)
	}
}

// ResultJSON is one match in API form.
type ResultJSON struct {
	ID      string `json:"id"`
	Type    string `json:"type"`
	Snippet string `json:"snippet,omitempty"`
}

// QueryJSON is one (refined) query in API form.
type QueryJSON struct {
	Keywords   []string     `json:"keywords"`
	DSim       float64      `json:"dsim"`
	Score      float64      `json:"score"`
	IsOriginal bool         `json:"is_original,omitempty"`
	Steps      []string     `json:"steps,omitempty"`
	Results    []ResultJSON `json:"results"`
}

// SearchJSON is the decode form of the /search document, for clients and
// tests; AppendSearchBody writes it. The degraded pair is omitted when
// empty, so responses of unconstrained servers stay byte-identical to the
// pre-hardening format.
type SearchJSON struct {
	Terms      []string    `json:"terms"`
	NeedRefine bool        `json:"need_refine"`
	SearchFor  []string    `json:"search_for,omitempty"`
	Queries    []QueryJSON `json:"queries"`
	// Degraded marks a partial answer: a deadline or posting budget
	// expired mid-query. Every result listed is genuine, but more may
	// exist.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Explain is the query's span tree, present only when the request
	// asked for it with explain=1 — omitted otherwise so no-explain
	// bodies stay byte-identical to the pre-tracing format.
	Explain *obs.SpanData `json:"explain,omitempty"`
}

// SearchBody projects an engine response onto SearchJSON. It is the
// reference the answer encoder is tested against: AppendSearchBody must
// produce exactly EncodeBody of its result. Snippets are attached through
// eng (nil skips them the way a document-less engine does); explain rides
// along when non-nil.
func SearchBody(eng Backend, resp *core.Response, explain *obs.SpanData) SearchJSON {
	out := SearchJSON{
		Terms:          resp.Terms,
		NeedRefine:     resp.NeedRefine,
		Degraded:       resp.Degraded,
		DegradedReason: resp.DegradedReason,
		Explain:        explain,
	}
	for _, c := range resp.SearchFor {
		out.SearchFor = append(out.SearchFor, c.Type.Path())
	}
	var scratch []byte // every snippet of the response renders here
	for _, rq := range resp.Queries {
		qj := QueryJSON{
			Keywords:   rq.Keywords,
			DSim:       rq.DSim,
			Score:      rq.Score,
			IsOriginal: rq.IsOriginal,
		}
		qj.Results = make([]ResultJSON, 0, len(rq.Results))
		for _, m := range rq.Results {
			rj := ResultJSON{ID: m.ID.String(), Type: m.Type.Path()}
			if eng != nil {
				var ok bool
				if scratch, ok = eng.AppendSnippetJSON(scratch[:0], m, snippetMax); ok {
					// A literal that does not decode leaves the field
					// out, so the encoder's bytes differ from these.
					_ = json.Unmarshal(scratch, &rj.Snippet)
				}
			}
			qj.Results = append(qj.Results, rj)
		}
		for _, st := range rq.Steps {
			qj.Steps = append(qj.Steps, st.String())
		}
		out.Queries = append(out.Queries, qj)
	}
	return out
}

// EncodeBody writes v the way every JSON response body of this server is
// written: two-space indent, HTML-escaped strings, trailing newline. It
// encodes the bodies of every route but /search (/narrow, /complete,
// /update, /healthz, /debug/*), and EncodeBody(SearchBody(...)) is the
// reference bytes of the answer encoder.
func EncodeBody(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func (s *Server) handleSearch(ctx context.Context, r *http.Request) (Outcome, any) {
	qv := r.URL.Query()
	req := SearchRequest{Q: qv.Get("q"), Explain: qv.Get("explain") == "1"}
	var err error
	if req.K, err = intParam(qv, "k", 0, MaxK); err != nil {
		return fail(http.StatusBadRequest, err), nil
	}
	// Partition is the one strategy served; the parameter is still
	// accepted under that name.
	if v := qv.Get("strategy"); v != "" && v != core.StrategyPartition.String() {
		return fail(http.StatusBadRequest, fmt.Errorf("unsupported strategy %q", v)), nil
	}
	out := s.pipe.search(ctx, &req)
	if out.Code != http.StatusOK {
		return out, nil
	}
	body := bodyPool.Get().(*encodedBody)
	body.b = AppendSearchBody(body.b[:0], out.Resp, s.eng, out.Explain)
	// The body holds the answer's bytes; the walk's state goes back for
	// the next query.
	out.Resp.Release()
	return out, body
}

// encodedBody is a response body the answer encoder already wrote; its
// buffer goes back to bodyPool once written out.
type encodedBody struct{ b []byte }

var bodyPool = sync.Pool{New: func() any { return new(encodedBody) }}

// narrowJSON is the /narrow response body.
type narrowJSON struct {
	TooBroad        bool         `json:"too_broad"`
	OriginalResults int          `json:"original_results"`
	Suggestions     []suggestion `json:"suggestions,omitempty"`
}

type suggestion struct {
	Keywords []string `json:"keywords"`
	Added    []string `json:"added"`
	Results  int      `json:"results"`
}

func (s *Server) handleNarrow(ctx context.Context, r *http.Request) (Outcome, any) {
	qv := r.URL.Query()
	q := qv.Get("q")
	if strings.TrimSpace(q) == "" {
		return fail(http.StatusBadRequest, errors.New("missing q parameter")), nil
	}
	max, err := intParam(qv, "max", 0, math.MaxInt)
	if err != nil {
		return fail(http.StatusBadRequest, err), nil
	}
	k, err := intParam(qv, "k", 0, MaxK)
	if err != nil {
		return fail(http.StatusBadRequest, err), nil
	}
	out, err := s.eng.Narrow(ctx, q, &narrow.Options{MaxResults: max, TopK: k})
	switch {
	case errors.Is(err, narrow.ErrNeedsDocument):
		return fail(http.StatusNotImplemented, err), nil
	case errors.Is(err, context.Canceled):
		return fail(statusClientClosedRequest, err), nil
	case errors.Is(err, context.DeadlineExceeded):
		return fail(http.StatusGatewayTimeout, err), nil
	case err != nil:
		return fail(http.StatusInternalServerError, err), nil
	}
	body := narrowJSON{TooBroad: out.TooBroad, OriginalResults: out.OriginalResults}
	for _, sg := range out.Suggestions {
		body.Suggestions = append(body.Suggestions, suggestion{
			Keywords: sg.Keywords, Added: sg.Added, Results: len(sg.Results),
		})
	}
	return Outcome{Code: http.StatusOK}, body
}

func (s *Server) handleComplete(_ context.Context, r *http.Request) (Outcome, any) {
	qv := r.URL.Query()
	q := qv.Get("q")
	if strings.TrimSpace(q) == "" {
		return fail(http.StatusBadRequest, errors.New("missing q parameter")), nil
	}
	k, err := intParam(qv, "k", 8, MaxK)
	if err != nil {
		return fail(http.StatusBadRequest, err), nil
	}
	terms := s.eng.Complete(q, k)
	if terms == nil {
		terms = []string{}
	}
	return Outcome{Code: http.StatusOK}, map[string]any{"completions": terms}
}

// updateJSON is the /update response body.
type updateJSON struct {
	Epoch     uint64 `json:"epoch"`
	InsertOps int    `json:"insert_ops"`
	DeleteOps int    `json:"delete_ops"`
	Inserted  int    `json:"nodes_inserted"`
	Deleted   int    `json:"nodes_deleted"`
}

// maxUpdateBody bounds an /update request body; a batch larger than this
// should arrive as several batches (each is one epoch commit anyway).
const maxUpdateBody = 16 << 20

func (s *Server) handleUpdate(_ context.Context, r *http.Request) (Outcome, any) {
	var batch mutate.Batch
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		return fail(http.StatusBadRequest, fmt.Errorf("bad update body: %w", err)), nil
	}
	if len(batch.Ops) == 0 {
		return fail(http.StatusBadRequest, errors.New("update batch has no ops")), nil
	}
	res, err := s.eng.Apply(&batch)
	if err != nil {
		// A rejected batch is the caller's fault (bad target, malformed
		// fragment); the engine state is untouched either way. A frozen
		// snapshot server is a deployment property, not a batch problem.
		code := http.StatusUnprocessableEntity
		if errors.Is(err, core.ErrReadOnly) {
			code = http.StatusConflict
		}
		return fail(code, err), nil
	}
	return Outcome{Code: http.StatusOK}, updateJSON{
		Epoch:     res.Epoch,
		InsertOps: res.InsertOps,
		DeleteOps: res.DeleteOps,
		Inserted:  res.Inserted,
		Deleted:   res.Deleted,
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	p := s.pipe
	us := s.eng.UpdateStats()
	hx := s.eng.Health()
	body := map[string]any{
		"status":         "ok",
		"epoch":          us.Epoch,
		"live_updates":   us.Live,
		"nodes":          s.eng.Index().NodeCount,
		"terms":          len(s.eng.Index().Vocabulary()),
		"shed":           s.sf.mShed.Value(),
		"panics":         s.sf.mPanics.Value(),
		"max_inflight":   p.cfg.MaxInFlight,
		"timeout_ms":     p.cfg.Timeout.Milliseconds(),
		"uptime_seconds": time.Since(p.start).Seconds(),
	}
	// The counters are the registry's own, read out of the snapshot that
	// rides along under "metrics", so the two cannot disagree.
	reg := s.eng.Metrics()
	snap := reg.Snapshot()
	for _, c := range healthCounters {
		body[c.key] = obs.SnapshotTotal(snap, c.family)
	}
	if reg != nil {
		body["metrics"] = snap
	}
	// The SLO burn-rate report rides under its own key; `xrefine slo`
	// decodes exactly this object.
	body["slo"] = p.slo.Report(time.Now())
	// Memory pressure observables: resident bytes of loaded posting-list
	// cores (the block-compressed index payload) next to the Go heap, so
	// an operator can see both what the index costs and what the process
	// holds overall.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	body["index_resident_bytes"] = s.eng.Index().ResidentBytes()
	body["go_heap_alloc_bytes"] = ms.HeapAlloc
	body["go_heap_sys_bytes"] = ms.HeapSys
	// Sharded backends surface their per-shard epochs next to the summed
	// one; single-engine servers omit the keys entirely.
	if hx.ShardEpochs != nil {
		body["shards"] = len(hx.ShardEpochs)
		body["shard_epochs"] = hx.ShardEpochs
	}
	// They additionally surface one health row per replica — state, epoch
	// lag, EWMA latency, breaker state — so an operator can see a
	// quarantined or breaker-open replica at a glance.
	if hx.Replicas != nil {
		body["replicas"] = hx.Replicas
		healthy := 0
		for _, row := range hx.Replicas {
			if row.State == core.ReplicaHealthy {
				healthy++
			}
		}
		body["replicas_healthy"] = healthy
		body["replicas_total"] = len(hx.Replicas)
	}
	// Store-backed engines surface their storage snapshot — kind, keys,
	// disk footprint, pages — so it is watchable without xstat -storage.
	if hx.Storage != nil {
		body["storage"] = *hx.Storage
	}
	writeJSON(w, body)
}

// handleMetrics serves the registry in Prometheus text exposition format.
// It bypasses the admission gate and the request timeout: a scrape must
// succeed precisely when the query path is saturated. A scraper that asks
// for OpenMetrics (?format=openmetrics, or an Accept header naming
// application/openmetrics-text) gets the same families with exemplars on
// the histogram buckets; the default exposition stays byte-identical to
// the pre-exemplar format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.eng.Metrics()
	if reg == nil {
		httpError(w, http.StatusNotFound, errors.New("metrics disabled"))
		return
	}
	if r.URL.Query().Get("format") == "openmetrics" ||
		strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WritePrometheus(w)
}

// handleEvents dumps the flight recorder, newest first: every request's
// admission, fan-out, replica attempts, hedges, retries, breaker and
// quarantine transitions, update commits. Filters: ?trace_id=<16-hex>,
// ?shard=<n>, ?kind=<name>, ?limit=<n>.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flight := s.pipe.flight
	if flight == nil {
		httpError(w, http.StatusNotFound, errors.New("flight recorder disabled (metrics off)"))
		return
	}
	var filter obs.EventFilter
	qv := r.URL.Query()
	if v := qv.Get("trace_id"); v != "" {
		id, err := obs.ParseTraceID(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad trace_id: %w", err))
			return
		}
		filter.Trace = id
	}
	if v := qv.Get("kind"); v != "" {
		k, err := obs.ParseEventKind(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		filter.Kind = k
	}
	if v := qv.Get("shard"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad shard: %w", err))
			return
		}
		filter.Shard = n
		filter.HasShard = true
	}
	var err error
	if filter.Limit, err = intParam(qv, "limit", 0, math.MaxInt); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	evs := flight.Events(filter)
	views := make([]obs.EventView, 0, len(evs))
	for _, e := range evs {
		views = append(views, e.View())
	}
	writeJSON(w, map[string]any{
		"capacity": flight.Capacity(),
		"dropped":  flight.Dropped(),
		"events":   views,
	})
}

// handleTrace resolves one retained trace ID — scraped off an exemplar, a
// slow-query entry, or an event dump — to its full record: the span tree
// plus the query, outcome and serving attribution.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if idStr == "" || strings.Contains(idStr, "/") {
		httpError(w, http.StatusBadRequest, errors.New("want /debug/trace/<trace-id>"))
		return
	}
	id, err := obs.ParseTraceID(idStr)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad trace id: %w", err))
		return
	}
	rt, ok := s.pipe.traces.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("trace %s not retained (sampled and slow traces only, last %d kept)", id, s.pipe.traces.Capacity()))
		return
	}
	writeJSON(w, rt)
}

// handleSlowlog is the trace store's slow-query view: the retained traces
// marked slow, newest first, and how many of them the store has evicted.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	threshold := s.pipe.cfg.SlowLogThreshold
	if threshold <= 0 {
		httpError(w, http.StatusNotFound, errors.New("slow-query log disabled; start with a slowlog threshold"))
		return
	}
	entries, dropped := s.pipe.traces.Slow()
	writeJSON(w, map[string]any{
		"threshold_ms": threshold.Milliseconds(),
		"dropped":      dropped,
		"entries":      entries,
	})
}

// intParam reads a non-negative integer parameter no larger than max; an
// absent one is def.
func intParam(qv url.Values, name string, def, max int) (int, error) {
	v := qv.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 || n > max {
		return 0, fmt.Errorf("bad %s parameter %q", name, v)
	}
	return n, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if body, ok := v.(*encodedBody); ok {
		_, _ = w.Write(body.b) // a failed write is a client gone; nothing is left to answer
		bodyPool.Put(body)
		return
	}
	_ = EncodeBody(w, v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
