// Package core assembles the XRefine engine — the paper's prototype system
// of the same name. An Engine owns a document index and answers keyword
// queries end-to-end: tokenize, derive the relevant refinement rules, infer
// the search-for node candidates, run the partition-based refinement of
// Section VI (Algorithm 2, which simultaneously decides whether the query
// needs refinement, explores refined-query candidates, and produces their
// matching results in a single scan of the inverted lists), and finally
// rank refined queries with the model of Section IV. The paper's other two
// algorithms, stack-refine and short-list eager, stay in package refine as
// references; NewWithExplorer runs them under this same pipeline.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xrefine/internal/index"
	"xrefine/internal/lexicon"
	"xrefine/internal/narrow"
	"xrefine/internal/obs"
	"xrefine/internal/rank"
	"xrefine/internal/refine"
	"xrefine/internal/rules"
	"xrefine/internal/searchfor"
	"xrefine/internal/storage"
	"xrefine/internal/tokenize"
	"xrefine/internal/xmltree"
)

// Strategy names the refinement algorithm a query asks for. The engine
// serves one, StrategyPartition; QueryTermsCtx refuses every other value.
type Strategy int

// StrategyPartition is Algorithm 2, partition-based top-K refinement.
const StrategyPartition Strategy = 0

// String names the strategy as in the paper's figures.
func (s Strategy) String() string {
	if s == StrategyPartition {
		return "partition"
	}
	return "unknown"
}

// Config tunes an Engine. The zero value works: builtin lexicon, default
// ranking model, top-3 refinements.
type Config struct {
	// Lexicon used for synonym/acronym rules; nil means lexicon.Builtin().
	Lexicon *lexicon.Lexicon
	// Rank is the ranking model; a zero model is replaced by
	// rank.Default().
	Rank rank.Model
	// SearchFor tunes search-for node inference.
	SearchFor searchfor.Options
	// TopK bounds the number of refined queries returned; 0 means 3.
	TopK int
	// Parallelism is ignored: a partition walk is one scan on the query's
	// goroutine, and a router runs one goroutine per shard. The field
	// stays only because the benchmark in bench/ still sets it.
	Parallelism int
	// PostingBudget caps the postings one query's exploration may consume
	// when positive — a deterministic work bound, unlike the deadline of
	// the query's context: the partition walk charges partitions in
	// document order, and under a posting budget a router runs its shard
	// scans one at a time, in shard order, so the budget stops the walk at
	// the same partition on every run. Either expiry degrades the response
	// rather than failing it, with reason "posting-budget" or "deadline".
	// Zero means unlimited.
	PostingBudget int
	// Metrics is the registry the engine registers its counters and
	// histograms on. Nil means the engine creates a private registry,
	// retrievable via Engine.Metrics(). Sharing one registry across an
	// engine and its HTTP server is the normal serving setup;
	// registration is idempotent so order does not matter.
	Metrics *obs.Registry
	// DisableMetrics runs the engine with no registry at all: every
	// metric handle is nil and each instrumentation point collapses to
	// a nil check. Intended for benchmark baselines, the
	// allocation-overhead guard and the shards of a router, which count
	// on the router's registry instead.
	DisableMetrics bool
}

func (c *Config) withDefaults() Config {
	out := Config{}
	if c != nil {
		out = *c
	}
	if out.Lexicon == nil {
		out.Lexicon = lexicon.Builtin()
	}
	if out.Rank == (rank.Model{}) {
		out.Rank = rank.Default()
	}
	if out.TopK <= 0 {
		out.TopK = 3
	}
	return out
}

// epoch is one immutable snapshot of the engine's data: the index, the
// source document (nil for index-only engines) and the generation number.
// Queries load the pointer once and run entirely against that snapshot, so
// a concurrent Apply never changes data under a running query — it swaps
// in a new epoch that only later queries observe.
type epoch struct {
	ix  *index.Index
	doc *xmltree.Document
	gen uint64
}

// Engine is an XRefine instance bound to one indexed document.
type Engine struct {
	ep  atomic.Pointer[epoch]
	cfg Config
	// explore is the engine's exploration of a prepared input:
	// refine.PartitionTopK over the epoch's index, or whatever
	// NewWithExplorer was given (the shard router's walk over its shards).
	explore func(in refine.Input, k int) (*refine.TopKOutcome, error)

	// applyMu serializes writers (Apply, Publish). Readers
	// never take it — they pin an epoch snapshot instead.
	applyMu sync.Mutex
	// live is the durable-update state (the store Apply commits to); nil
	// for in-memory engines, whose epochs advance without persistence.
	// frozen marks a store-backed engine opened without live support:
	// Apply is refused so the served state can never silently diverge
	// from the store.
	live   *liveState
	frozen bool
	// store is the backing store for store-opened engines (read-only or
	// live); nil for in-memory construction. Held for storage-state
	// reporting only — ownership stays with the caller.
	store storage.Backend

	// reg is the metrics registry (nil when disabled); m holds the
	// registered handles. The registry is the engine's one counter book:
	// /healthz reads its counters back out of a registry snapshot.
	reg *obs.Registry
	m   engineMetrics
	// flight is the registry's always-on event ring (nil when metrics are
	// disabled): one query event per completed query, plus budget-expiry
	// and commit events, all stamped with the request's trace ID.
	flight *obs.FlightRecorder
}

// snapshot pins the current epoch. The returned value is immutable; every
// read within one query must go through the same snapshot.
func (e *Engine) snapshot() *epoch { return e.ep.Load() }

// Epoch returns the current index generation: 0 for a freshly built
// engine, incremented by every applied update batch. Engines opened from
// a store resume at the store's committed epoch.
func (e *Engine) Epoch() uint64 { return e.snapshot().gen }

// Health reports, for a store-backed engine, the backing store's
// storage-engine snapshot.
func (e *Engine) Health() HealthExtras {
	var hx HealthExtras
	if e.store != nil {
		st := e.store.StorageStats()
		hx.Storage = &st
	}
	return hx
}

// Metrics returns the engine's registry — what /metrics exposes and the
// HTTP server registers its own metrics on. Nil when DisableMetrics.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// noteOutcome records one exploration's observables: partitions visited,
// dynamic-program runs, candidate generation and pruning, and the SLCA
// work delegated.
func (e *Engine) noteOutcome(out *refine.TopKOutcome) {
	e.m.refinePartitions.Add(int64(out.Partitions))
	e.m.rqGenerated.Add(int64(out.RQGenerated))
	e.m.dpRuns.Add(int64(out.DPRuns))
	e.m.rqPruned.Add(int64(out.RQPruned))
	e.m.slcaCalls.Add(int64(out.SLCACalls))
	e.m.slcaPostings.Add(out.SLCAPostings)
}

// NewFromIndex wraps an existing index. Engines built this way have no
// source document, so Narrow is unavailable.
func NewFromIndex(ix *index.Index, cfg *Config) *Engine {
	return NewWithExplorer(ix, cfg, refine.PartitionTopK)
}

// NewWithExplorer is NewFromIndex with the exploration replaced by explore
// — how the shard router's meta engine walks its shards instead of ix's
// lists, and how the experiments run the paper's reference algorithms
// (refine.ShortListEager, stack-refine) under the served pipeline. explore
// receives the input the engine prepared against ix (budget, deadline and
// the refine:partition span included); everything around it — preparing,
// accounting, ranking, expansion, counters and flight events — is the
// engine's own, so a router query is answered exactly like a local one.
func NewWithExplorer(ix *index.Index, cfg *Config, explore func(in refine.Input, k int) (*refine.TopKOutcome, error)) *Engine {
	c := cfg.withDefaults()
	reg := c.Metrics
	if c.DisableMetrics {
		reg = obs.Disabled()
	} else if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{cfg: c, explore: explore, reg: reg, m: newEngineMetrics(reg), flight: reg.Flight()}
	e.ep.Store(&epoch{ix: ix})
	e.registerEpochMetrics(reg)
	return e
}

// NewFromDocument indexes a parsed document in memory and keeps the
// document for snippets and narrowing.
func NewFromDocument(doc *xmltree.Document, cfg *Config) *Engine {
	e := NewFromIndex(index.Build(doc), cfg)
	e.setDocument(doc)
	return e
}

// setDocument attaches doc to the current epoch; construction-time only,
// before the engine is shared.
func (e *Engine) setDocument(doc *xmltree.Document) {
	ep := *e.ep.Load()
	ep.doc = doc
	e.ep.Store(&ep)
}

// NewFromXML parses and indexes XML from r, keeping the document tree for
// snippets and narrowing.
func NewFromXML(r io.Reader, cfg *Config) (*Engine, error) {
	doc, err := xmltree.Parse(r, nil)
	if err != nil {
		return nil, err
	}
	return NewFromDocument(doc, cfg), nil
}

// Open loads an engine from an index file previously written with
// SaveIndex or SaveIndexWithDocument. When the store also carries the
// source document (SaveIndexWithDocument), it is restored so snippets and
// narrowing keep working. The store stays open for lazy posting-list
// loads; the caller owns closing it.
func Open(store storage.Backend, cfg *Config) (*Engine, error) {
	return openStore(store, nil, cfg)
}

// OpenShared is Open against a shared type registry: the store's persisted
// types intern into reg instead of a private registry (index.LoadInto), so
// several engines opened this way agree on type pointer identity. The
// shard router opens every shard of a corpus through here — the merged
// index and the cross-shard result merge both compare types by pointer.
func OpenShared(store storage.Backend, reg *xmltree.Registry, cfg *Config) (*Engine, error) {
	if reg == nil {
		return nil, errors.New("core: OpenShared needs a registry")
	}
	return openStore(store, reg, cfg)
}

func openStore(store storage.Backend, reg *xmltree.Registry, cfg *Config) (*Engine, error) {
	var ix *index.Index
	var err error
	if reg != nil {
		ix, err = index.LoadInto(store, reg)
	} else {
		ix, err = index.Load(store)
	}
	if err != nil {
		return nil, err
	}
	e := NewFromIndex(ix, cfg)
	e.store = store
	InstrumentStore(e.reg, store)
	// The document interns into the index's registry: types are compared
	// by pointer, and live updates graft nodes whose types must be the
	// index's own.
	doc, ok, err := xmltree.LoadDocumentInto(store, ix.Types)
	if err != nil {
		return nil, fmt.Errorf("core: restore document: %w", err)
	}
	ep := *e.ep.Load()
	if ok {
		ep.doc = doc
	}
	// Resume at the store's committed epoch so epochs continue across
	// restarts.
	ep.gen = store.Epoch()
	e.ep.Store(&ep)
	e.frozen = true
	return e, nil
}

// SaveIndex persists the engine's index into a kvstore.
func (e *Engine) SaveIndex(store storage.Backend) error { return e.snapshot().ix.Save(store) }

// SaveIndexWithDocument persists the index plus the source document, so an
// engine opened from this store retains snippets and narrowing. It fails
// on engines that have no document (built from an index or a stream).
func (e *Engine) SaveIndexWithDocument(store storage.Backend) error {
	ep := e.snapshot()
	if ep.doc == nil {
		return errors.New("core: engine has no source document to save")
	}
	if err := xmltree.SaveDocument(ep.doc, store); err != nil {
		return err
	}
	return ep.ix.Save(store)
}

// Index exposes the underlying index (read-only by convention). Under
// live updates this is the current epoch's index; pin it once rather than
// calling repeatedly when consistency across reads matters.
func (e *Engine) Index() *index.Index { return e.snapshot().ix }

// Document returns the source document when the engine was built from one,
// or nil for engines loaded from an index store.
func (e *Engine) Document() *xmltree.Document { return e.snapshot().doc }

// Complete suggests up to k indexed terms starting with the last token of
// the partial query — search-as-you-type over the corpus vocabulary,
// most-frequent first.
func (e *Engine) Complete(partial string, k int) []string {
	terms := tokenize.Query(partial)
	if len(terms) == 0 {
		return nil
	}
	return e.snapshot().ix.CompleteByPrefix(terms[len(terms)-1], k)
}

// Narrow handles the opposite failure mode of refinement — the paper's
// stated future work: a query with *too many* meaningful results. It
// proposes narrowed queries (original keywords plus a discriminative
// co-occurring term each), verified to still have meaningful results.
// Engines loaded from an index store return narrow.ErrNeedsDocument. Once
// ctx is done, Narrow stops and returns its error.
func (e *Engine) Narrow(ctx context.Context, q string, opts *narrow.Options) (*narrow.Outcome, error) {
	terms := tokenize.Query(q)
	if len(terms) == 0 {
		return nil, errors.New("core: query has no keywords")
	}
	ep := e.snapshot()
	in, _, err := e.prepare(ep, terms)
	if err != nil {
		return nil, err
	}
	return narrow.Narrow(ctx, ep.doc, ep.ix, terms, in.Judge, opts)
}

// RankedQuery is one entry of a response: a query (the original or a
// refinement) with its matching results.
type RankedQuery struct {
	// Keywords of the query, sorted.
	Keywords []string
	// DSim is dSim(Q, RQ); 0 for the original query.
	DSim float64
	// Score is the overall rank by Formula 10 (0 for the original:
	// the ranking model only compares refinements).
	Score float64
	// SimScore and DepScore are the two components of Score before the
	// α/β weighting — the similarity (Formula 6) and dependence
	// (Formula 9) parts, exposed for explanation UIs.
	SimScore, DepScore float64
	// IsOriginal marks the original query.
	IsOriginal bool
	// Steps explains how the original query was refined into this one
	// (deletions and rule applications, in order); empty for the
	// original.
	Steps []refine.Step
	// Results are the meaningful SLCA matches.
	Results []refine.Match
}

// Response is the engine's answer to one keyword query.
type Response struct {
	// Terms is the normalized original query.
	Terms []string
	// NeedRefine reports Definition 3.4: the original query had no
	// meaningful SLCA.
	NeedRefine bool
	// SearchFor lists the inferred search-for node candidates.
	SearchFor []searchfor.Candidate
	// Rules is the rule set that was derived for the query.
	Rules []rules.Rule
	// Queries holds the original query (when satisfiable) or the ranked
	// refined queries, best first.
	Queries []RankedQuery
	// Degraded reports that a deadline or posting budget expired before
	// the exploration finished: every result present is genuine, but the
	// walk covered only part of the document, so candidates (or better
	// refinements) may be missing. The candidates are ranked with the
	// co-occurrence counted over the partitions the walk covered: ranking
	// reads no list, so a budget never buys decoding after the walk.
	Degraded bool
	// DegradedReason names the cause when Degraded: "deadline",
	// "posting-budget" or, on a shard router, "shard-partial" (the
	// refine.Degraded* constants).
	DegradedReason string

	// out is the walk's outcome, whose state the results live in until
	// Release.
	out *refine.TopKOutcome
}

// Release hands the memory the response's results live in back to the
// walk, for the next query to reuse: a server calls it once the response
// is encoded. The response's queries must not be read afterwards; Release
// drops them. A response that is never released is left to the
// collector, which is what a caller that keeps its responses does.
// Releasing twice, or a nil response, does nothing.
func (r *Response) Release() {
	if r != nil {
		out := r.out
		r.out, r.Queries = nil, nil
		out.Release()
	}
}

// prepare derives the per-query machinery — rule set, search-for
// candidates and refinement input — without running any algorithm: the
// shared front half of QueryTermsCtx and Narrow. It is pinned to
// one epoch, so a query whose front half races an Apply still reads rules,
// inference and lists from one consistent snapshot.
func (e *Engine) prepare(ep *epoch, terms []string) (refine.Input, []searchfor.Candidate, error) {
	rs, err := rules.Generator{Lexicon: e.cfg.Lexicon}.Generate(ep.ix, terms)
	if err != nil {
		return refine.Input{}, nil, fmt.Errorf("core: rule generation: %w", err)
	}
	// Search-for inference uses the query terms plus the rule-generated
	// keywords: for fully mismatched queries only the latter touch the
	// data at all.
	inferTerms := append(append([]string(nil), terms...), rs.NewKeywords(terms)...)
	cands := searchfor.Infer(ep.ix, inferTerms, &e.cfg.SearchFor)
	in := refine.Input{
		Index: ep.ix,
		Query: terms,
		Rules: rs,
		Judge: searchfor.NewJudge(cands),
	}
	return in, cands, nil
}

// QueryTermsCtx answers a pre-tokenized query under a caller context — the
// engine's one query entry point. strategy must be StrategyPartition; k <= 0
// uses Config.TopK; parallelism is ignored, and stays in the signature only
// because the benchmark in bench/ still passes it. The query's deadline is
// ctx's. An expired deadline or exhausted posting budget returns a partial
// response with Degraded set; an outright cancellation returns ctx.Err().
func (e *Engine) QueryTermsCtx(ctx context.Context, terms []string, strategy Strategy, k, parallelism int) (*Response, error) {
	if len(terms) == 0 {
		return nil, errors.New("core: query has no keywords")
	}
	if strategy != StrategyPartition {
		return nil, fmt.Errorf("core: strategy %d is not served (only %v is)", int(strategy), StrategyPartition)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if k <= 0 {
		k = e.cfg.TopK
	}
	e.m.queries.Inc()
	start := time.Now()
	// Pin one epoch for the whole query: rule generation, exploration and
	// ranking all read this snapshot, so a concurrent Apply cannot mix
	// generations within one response.
	ep := e.snapshot()
	e.m.pinnedQueries.Add(1)
	defer e.m.pinnedQueries.Add(-1)
	resp, err := e.answer(ctx, ep, terms, k)
	if err != nil {
		return nil, err
	}
	if resp.NeedRefine {
		e.m.refined.Inc()
	}
	if resp.Degraded {
		e.m.degraded.With(resp.DegradedReason).Inc()
		e.flight.Record(obs.Event{Trace: obs.TraceIDFromContext(ctx), Kind: obs.EvBudgetExpiry,
			Shard: -1, Replica: -1, Note: resp.DegradedReason})
	}
	d := time.Since(start)
	e.flight.Record(obs.Event{Trace: obs.TraceIDFromContext(ctx), Kind: obs.EvQuery,
		Shard: -1, Replica: -1, DurNS: int64(d), N: int64(len(terms))})
	e.m.querySeconds.Observe(d.Seconds())
	return resp, nil
}

// answer runs the pipeline against one pinned epoch: prepare, explore,
// rank.
func (e *Engine) answer(ctx context.Context, ep *epoch, terms []string, k int) (*Response, error) {
	root := obs.SpanFromContext(ctx)
	psp := root.StartChild("prepare")
	in, cands, err := e.prepare(ep, terms)
	psp.End()
	if err != nil {
		return nil, err
	}
	in.Budget = refine.NewBudget(ctx, e.cfg.PostingBudget)
	var ssp *obs.Span
	if root != nil {
		ssp = root.StartChild("refine:partition")
		in.Trace = ssp
	}
	resp := &Response{Terms: terms, SearchFor: cands, Rules: in.Rules.Rules()}
	out, err := e.explore(in, k)
	annotateRefineSpan(ssp, out)
	if err != nil {
		return nil, err
	}
	e.noteOutcome(out)
	resp.out = out
	if err := e.finishTopK(root, ep, resp, terms, out, k); err != nil {
		resp.Release()
		return nil, err
	}
	return resp, nil
}

// annotateRefineSpan stamps the refine span with the exploration's
// observables and ends it. Nil-safe on both arguments.
func annotateRefineSpan(sp *obs.Span, out *refine.TopKOutcome) {
	if sp != nil && out != nil {
		sp.SetInt("partitions", int64(out.Partitions))
		sp.SetInt("slca_calls", int64(out.SLCACalls))
		sp.SetInt("slca_postings", out.SLCAPostings)
		sp.SetInt("rq_generated", int64(out.RQGenerated))
		sp.SetInt("dp_runs", int64(out.DPRuns))
		sp.SetInt("rq_pruned", int64(out.RQPruned))
		if out.Degraded {
			sp.SetStr("degraded", out.DegradedReason)
		}
	}
	sp.End()
}

// finishTopK interprets a top-K outcome: when the original query itself
// surfaced with results it needs no refinement; otherwise the candidates
// are ranked with Formula 10 and cut to K (the paper's line 19). trace is
// the query's root span (nil when untraced); ranking runs under a "rank"
// child.
func (e *Engine) finishTopK(trace *obs.Span, ep *epoch, resp *Response, terms []string, out *refine.TopKOutcome, k int) error {
	rsp := trace.StartChild("rank")
	defer rsp.End()
	if rsp != nil {
		rsp.SetInt("candidates", int64(len(out.Candidates)))
	}
	resp.Degraded = out.Degraded
	resp.DegradedReason = out.DegradedReason
	for _, it := range out.Candidates {
		if it.RQ.DSim == 0 && it.RQ.SameKeywords(terms) {
			resp.NeedRefine = false
			resp.Queries = []RankedQuery{{
				Keywords:   it.RQ.Keywords,
				IsOriginal: true,
				Results:    it.Results,
			}}
			return nil
		}
	}
	resp.NeedRefine = true
	// Formula 7 reads the co-occurrence the walk counted; only an
	// exploration that is not the walk leaves it to the lists.
	var co rank.CoOccurrence = ep.ix
	if out.CoCounts != nil {
		co = out.CoCounts
	}
	for _, it := range out.Candidates {
		sim := e.cfg.Rank.Similarity(ep.ix, resp.SearchFor, terms, it.RQ.Keywords, it.RQ.DSim)
		dep, err := e.cfg.Rank.DependenceFrom(ep.ix, co, resp.SearchFor, it.RQ.Keywords)
		if err != nil {
			return err
		}
		resp.Queries = append(resp.Queries, RankedQuery{
			Keywords: it.RQ.Keywords,
			DSim:     it.RQ.DSim,
			Score:    e.cfg.Rank.Alpha*sim + e.cfg.Rank.Beta*dep,
			SimScore: sim,
			DepScore: dep,
			Steps:    it.RQ.Steps,
			Results:  it.Results,
		})
	}
	sort.SliceStable(resp.Queries, func(i, j int) bool {
		if resp.Queries[i].Score != resp.Queries[j].Score {
			return resp.Queries[i].Score > resp.Queries[j].Score
		}
		return resp.Queries[i].DSim < resp.Queries[j].DSim
	})
	if len(resp.Queries) > k {
		resp.Queries = resp.Queries[:k]
	}
	return nil
}

// Snippet renders a human-readable preview of a match against the source
// document. ok is false when the engine has no document (loaded from an
// index-only store) — the serving layer omits the snippet field then.
func (e *Engine) Snippet(m refine.Match, max int) (string, bool) {
	doc := e.snapshot().doc
	if doc == nil {
		return "", false
	}
	return Snippet(doc, m, max), true
}

// AppendSnippetJSON appends Snippet as a JSON string literal to dst; with
// ok false dst comes back unchanged.
func (e *Engine) AppendSnippetJSON(dst []byte, m refine.Match, max int) ([]byte, bool) {
	doc := e.snapshot().doc
	if doc == nil {
		return dst, false
	}
	return appendSnippet(dst, doc, m, max, true), true
}

// Snippet renders a human-readable preview of a match against the original
// document; engines loaded from an index file have no document and return
// the bare label.
func Snippet(doc *xmltree.Document, m refine.Match, max int) string {
	return string(appendSnippet(nil, doc, m, max, false))
}

// appendSnippet appends the bytes of Snippet to dst, as a JSON string
// literal when inJSON.
func appendSnippet(dst []byte, doc *xmltree.Document, m refine.Match, max int, inJSON bool) []byte {
	if doc != nil {
		if n, ok := doc.NodeByID(m.ID); ok {
			if inJSON {
				return n.AppendSnippetJSON(dst, max)
			}
			return n.AppendSnippet(dst, max)
		}
	}
	if inJSON {
		return xmltree.AppendJSONString(dst, m.Type.Tag+":"+m.ID.String())
	}
	dst = append(dst, m.Type.Tag...)
	dst = append(dst, ':')
	return m.ID.AppendText(dst)
}
