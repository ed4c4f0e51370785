package server

import (
	"context"
	"errors"
	"log"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/index"
	"xrefine/internal/obs"
	"xrefine/internal/tokenize"
)

// DefaultK is the number of refined queries a request gets when it names
// none — the same on every surface, so a request that leaves k out gets
// the same answer from each.
const DefaultK = 3

// MaxK bounds a query's k on every surface: the HTTP codec answers 400
// above it and the wire decoder refuses the frame.
const MaxK = 1 << 20

// defaultTraceSampleEvery is the 1-in-N span-tree retention rate when
// Config.TraceSampleEvery is 0.
const defaultTraceSampleEvery = 64

// statusClientClosedRequest is the de-facto code (nginx's 499) for
// "client went away before we could answer"; the response is unseen, the
// code only keeps access logs honest.
const statusClientClosedRequest = 499

var (
	errAtCapacity = errors.New("server at capacity")
	errInternal   = errors.New("internal error")
)

// Pipeline is the one request path of the process. Every query or update,
// whichever surface decoded it, runs admit → deadline → trace → backend →
// account here, so the surfaces are codecs: they turn bytes into a request,
// hand it over, and turn the Outcome back into bytes. What the pipeline
// owns exists once per process — the admission gate, the per-request
// deadline, panic containment, trace-ID stamping, the admit/finish flight
// events, and the sampler → trace store → SLO accounting — so a limit or a
// signal cannot apply to one surface and not another.
type Pipeline struct {
	eng  Backend
	cfg  Config
	gate chan struct{} // admission semaphore; nil when unbounded

	flight  *obs.FlightRecorder // the registry's shared event ring
	sampler *obs.Sampler        // 1-in-N span-tree retention
	traces  *obs.TraceStore     // behind /debug/trace/<id> and /debug/slowlog
	slo     *obs.SLO            // fed by every finished request
	start   time.Time
}

func newPipeline(eng Backend, cfg Config) *Pipeline {
	reg := eng.Metrics()
	p := &Pipeline{eng: eng, cfg: cfg, flight: reg.Flight(), start: time.Now()}
	if cfg.MaxInFlight > 0 {
		p.gate = make(chan struct{}, cfg.MaxInFlight)
	}
	sampleEvery := cfg.TraceSampleEvery
	if sampleEvery == 0 {
		sampleEvery = defaultTraceSampleEvery
	}
	p.sampler = obs.NewSampler(sampleEvery) // nil (never samples) when negative
	p.traces = obs.NewTraceStore(obs.TraceCapacity)
	p.slo = obs.NewSLO(cfg.SLO)
	reg.GaugeVec("xrefine_build_info",
		"Build identity; value is always 1, the labels carry the information.",
		"go_version", "index_format").With(runtime.Version(), index.FormatVersion).Set(1)
	reg.GaugeFunc("xrefine_uptime_seconds",
		"Seconds since this server was constructed.",
		func() float64 { return time.Since(p.start).Seconds() })
	// Burn rates as gauges, one family per window×objective (func-backed
	// families are unlabeled): how fast the error budget is being spent,
	// normalized so 1.0 consumes it exactly at the sustainable rate.
	for _, window := range []string{"5m", "1h"} {
		for _, objective := range []string{"availability", "latency"} {
			window, objective := window, objective
			reg.GaugeFunc("xrefine_slo_"+objective+"_burn_"+window,
				"Error-budget burn rate of the "+objective+" objective over the trailing "+window+".",
				func() float64 { return p.slo.BurnRate(window, objective) })
		}
	}
	return p
}

// Backend returns the backend the pipeline queries; codecs render
// snippets through it.
func (p *Pipeline) Backend() Backend { return p.eng }

// Surface is one codec's accounting identity on the pipeline: the
// xrefine_<name>_* families its requests are counted under. The work is
// shared; only the books are kept per surface, so an operator can still
// tell HTTP traffic from binary traffic.
type Surface struct {
	mShed     *obs.Counter
	mPanics   *obs.Counter
	mInflight *obs.Gauge
	mSeconds  *obs.Histogram
	mReqs     *obs.CounterVec // labels: <routeLabel>, code
}

// Surface registers the request families of the surface called name
// ("http", "wire") on the backend's registry; routeLabel names the label
// that tells its request kinds apart ("route", "op"). Handles are nil (and
// no-op) when the backend was built with DisableMetrics.
func (p *Pipeline) Surface(name, routeLabel string) *Surface {
	reg, fam := p.eng.Metrics(), "xrefine_"+name+"_"
	return &Surface{
		mShed: reg.Counter(fam+"shed_total",
			"Requests on the "+name+" surface rejected by the admission gate."),
		mPanics: reg.Counter(fam+"panics_total",
			"Request panics on the "+name+" surface contained."),
		mInflight: reg.Gauge(fam+"inflight",
			"Requests on the "+name+" surface currently inside the pipeline."),
		mSeconds: reg.Histogram(fam+"request_seconds",
			"Pipeline latency of requests on the "+name+" surface, in seconds.", obs.DefBuckets),
		mReqs: reg.CounterVec(fam+"requests_total",
			"Requests on the "+name+" surface, by "+routeLabel+" and status code.", routeLabel, "code"),
	}
}

// Requests returns the surface's request counter family, for request
// kinds a codec answers without entering the pipeline (pings, framing
// errors).
func (sf *Surface) Requests() *obs.CounterVec { return sf.mReqs }

// boundCodes are the status codes the pipeline itself produces. A Route
// binds their counters up front: CounterVec.With is variadic and would cost
// an allocation per request on the binary hot path.
var boundCodes = [...]int{http.StatusOK, http.StatusBadRequest, statusClientClosedRequest,
	http.StatusInternalServerError, http.StatusServiceUnavailable}

// Route is one request kind on a surface.
type Route struct {
	sf     *Surface
	label  string // value of the surface's route label
	note   string // Note of the route's flight events
	byCode [len(boundCodes)]*obs.Counter
}

// Route declares a request kind: label is its value of the surface's
// route label, note what its admit/finish flight events carry.
func (sf *Surface) Route(label, note string) *Route {
	rt := &Route{sf: sf, label: label, note: note}
	for i, code := range boundCodes {
		rt.byCode[i] = sf.mReqs.With(label, strconv.Itoa(code))
	}
	return rt
}

func (rt *Route) count(code int) {
	for i, bound := range boundCodes {
		if code == bound {
			rt.byCode[i].Inc()
			return
		}
	}
	rt.sf.mReqs.With(rt.label, strconv.Itoa(code)).Inc()
}

// Recovered accounts a panic contained while serving what: the request
// becomes a 500 for itself alone instead of killing the process. The
// pipeline calls it for panics below it; a codec calls it for one raised
// outside, while decoding or encoding.
func (sf *Surface) Recovered(what string, v any) {
	sf.mPanics.Inc()
	log.Printf("server: panic serving %s: %v", what, v)
}

// Outcome is the pipeline's typed answer to one request. Codecs map Code
// onto their envelope: 200 carries the result, 400 a request the pipeline
// refused, 499 a client that went away, 500 a backend failure or contained
// panic, 503 a shed request with its retry hint. Handlers of the HTTP-only
// routes may answer further codes of their own.
type Outcome struct {
	Code int
	// Err is the message of a non-200 outcome.
	Err error
	// RetryAfter is the jittered backoff hint, in seconds, of a 503.
	RetryAfter int
	// Trace is the ID the request ran under: the client's, or the one the
	// pipeline minted.
	Trace obs.TraceID
	// Resp is a search's answer; Explain its span tree when asked for.
	Resp    *core.Response
	Explain *obs.SpanData
}

func fail(code int, err error) Outcome { return Outcome{Code: code, Err: err} }

// do runs fn as one request of route rt through the shared edge: stamp
// the trace ID, record admission, pass the gate, arm the deadline, contain
// panics, then record the finish and feed the books. A ctx that already
// carries a ReqInfo (a connection that serves its requests strictly one at
// a time keeps one) has it re-armed instead of replaced, which is what
// keeps the binary path allocation-free. trace, when nonzero, is the
// client's own ID.
//
// The finished request feeds the SLO engine (bad availability = 5xx, which
// includes shed; a client that hung up is not the server's fault), and a
// request whose trace was retained pins its latency onto the histogram as
// an exemplar so the bucket links back to /debug/trace/<id>.
func (p *Pipeline) do(ctx context.Context, rt *Route, trace obs.TraceID, fn func(context.Context) Outcome) (out Outcome) {
	start := time.Now()
	ri := obs.ReqInfoFromContext(ctx)
	if ri == nil {
		ri = obs.NewReqInfo()
		ctx = obs.WithReqInfo(ctx, ri)
	} else {
		ri.Reset()
	}
	if trace != 0 {
		ri.Trace = trace
	}
	sf := rt.sf
	p.flight.Record(obs.Event{Trace: ri.Trace, Kind: obs.EvAdmit,
		Shard: -1, Replica: -1, Note: rt.note})
	sf.mInflight.Add(1)
	defer func() {
		sf.mInflight.Add(-1)
		out.Trace = ri.Trace
		dur := time.Since(start)
		p.flight.Record(obs.Event{Trace: ri.Trace, Kind: obs.EvFinish,
			Shard: -1, Replica: -1, DurNS: int64(dur), N: int64(out.Code), Note: rt.note})
		p.slo.Record(time.Now(), out.Code < http.StatusInternalServerError, dur)
		if ri.Retained() {
			sf.mSeconds.ObserveExemplar(dur.Seconds(), ri.Trace, time.Now())
		} else {
			sf.mSeconds.Observe(dur.Seconds())
		}
		rt.count(out.Code)
	}()
	if p.gate != nil {
		select {
		case p.gate <- struct{}{}:
			defer func() { <-p.gate }()
		default:
			// Shed immediately: under overload a bounded, fast "no" beats
			// an unbounded queue of slow yeses. The retry hint is
			// randomized (1–3s) so a fleet of shed clients does not retry
			// in lockstep and re-saturate the gate on the same tick — the
			// jitter half of retry-with-jitter, served by the party that
			// can see the thundering herd forming.
			sf.mShed.Inc()
			return Outcome{Code: http.StatusServiceUnavailable, Err: errAtCapacity, RetryAfter: 1 + rand.Intn(3)}
		}
	}
	if p.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.cfg.Timeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			sf.Recovered(rt.note, v)
			out = fail(http.StatusInternalServerError, errInternal)
		}
	}()
	return fn(ctx)
}

// SearchRequest is a decoded query, the one shape every codec produces.
type SearchRequest struct {
	// Q is the raw query text, tokenized by the pipeline (under the trace
	// root, when one is armed). Codecs whose clients send normalized terms
	// set Terms instead.
	Q     string
	Terms []string

	// K is the number of refined queries wanted; 0 means the backend's
	// configured value.
	K int
	// Explain asks for the span tree in the Outcome.
	Explain bool
	// Trace is the client's own trace ID; zero has the pipeline mint one.
	Trace obs.TraceID
}

// Search answers one query on route rt.
func (p *Pipeline) Search(ctx context.Context, rt *Route, req *SearchRequest) Outcome {
	return p.do(ctx, rt, req.Trace, func(ctx context.Context) Outcome { return p.search(ctx, req) })
}

// search is the query stage proper, run inside do. A trace is armed when
// the caller asked for an explanation, a slow-query threshold is set (it
// needs the span tree of any query that turns out slow), or the sampler
// elected this query for retention. Only explained, sampled and slow
// queries are retained, so a threshold does not flood the trace store.
// Untraced queries pay one context lookup per stage.
func (p *Pipeline) search(ctx context.Context, req *SearchRequest) Outcome {
	ri := obs.ReqInfoFromContext(ctx)
	// Mark before the query runs so the shard fan-out pins attempt
	// exemplars only for queries whose trace will be resolvable.
	ri.Sampled = req.Explain || p.sampler.Sample()
	var root *obs.Span
	slowAt := p.cfg.SlowLogThreshold
	if ri.Sampled || slowAt > 0 {
		ctx, root = obs.NewTrace(ctx, "query")
		defer root.Release()
	}
	terms, q := req.Terms, req.Q
	if terms == nil {
		root.SetStr("q", q)
		tsp := root.StartChild("tokenize")
		terms = tokenize.Query(q)
		if tsp != nil {
			tsp.SetInt("terms", int64(len(terms)))
			tsp.End()
		}
		if len(terms) == 0 {
			return fail(http.StatusBadRequest, errors.New("missing or empty q parameter"))
		}
	} else if root != nil {
		q = strings.Join(terms, " ")
	}
	start := time.Now()
	resp, err := p.eng.QueryTermsCtx(ctx, terms, core.StrategyPartition, req.K, 0)
	out := Outcome{Code: http.StatusOK, Resp: resp}
	if errors.Is(err, context.Canceled) {
		out = fail(statusClientClosedRequest, err)
	} else if err != nil {
		out = fail(http.StatusInternalServerError, err)
	}
	if root != nil {
		root.End()
		rt := obs.RetainedTrace{ID: ri.Trace, Time: time.Now(), Query: q,
			DurationNS: int64(time.Since(start)), Trace: root.Data()}
		// An errored sampled query is retained too — its attempt exemplars
		// are already pinned, and a failing query is the one an operator
		// most wants the trace of — but only answered ones are slow queries.
		if err == nil {
			rt.Degraded, rt.DegradedReason = resp.Degraded, resp.DegradedReason
			rt.Slow = slowAt > 0 && time.Duration(rt.DurationNS) >= slowAt
		}
		// A retained request may pin its trace ID on the latency
		// histograms as an exemplar, which therefore always resolves at
		// /debug/trace/<id> while the retention window holds it.
		if ri.Sampled || rt.Slow {
			rt.Shard, rt.Replica, rt.Hedged, _ = ri.Serving()
			p.traces.Put(rt)
			ri.MarkRetained()
		}
		if req.Explain {
			out.Explain = rt.Trace
		}
	}
	return out
}
