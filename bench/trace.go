package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/dewey"
	"xrefine/internal/index"
	"xrefine/internal/lexicon"
	"xrefine/internal/rank"
	"xrefine/internal/refine"
	"xrefine/internal/rules"
	"xrefine/internal/searchfor"
	"xrefine/internal/server"
	"xrefine/internal/slca"
	"xrefine/internal/tokenize"
	"xrefine/internal/wire"
)

// span is one timed call into a layer. Each read has a "request" span;
// under it an "engine" span holds the stages in the order core.Engine runs
// them, followed by the serving surface's encoder. Probe spans time one
// lower layer's public function on the same inputs — the benchmark cannot
// nest inside refine.PartitionTopK from outside — and start after the
// request span has ended, so they are in no total.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 for a request span
	Req    int                `json:"req"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Probe  bool               `json:"probe,omitempty"`
	Allocs int64              `json:"allocs"`
	Counts map[string]float64 `json:"counts,omitempty"`

	allocs0 uint64
}

func (s *span) durNs() float64 { return float64(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0     time.Time
	spans  []span
	sample []metrics.Sample
}

func newRecorder(capacity int) *recorder {
	return &recorder{
		t0:     time.Now(),
		spans:  make([]span, 0, capacity),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

// heapAllocs is the process's cumulative count of heap objects allocated.
func (r *recorder) heapAllocs() uint64 {
	metrics.Read(r.sample)
	return r.sample[0].Value.Uint64()
}

func (r *recorder) begin(name string, parent, req int, probe bool) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Probe: probe})
	sp := &r.spans[len(r.spans)-1]
	sp.allocs0 = r.heapAllocs()
	sp.Start = time.Since(r.t0).Nanoseconds()
	return sp.ID
}

// end closes a span. Its counts are attached afterwards with counts, so
// that building the map is not charged to the span's allocation count.
func (r *recorder) end(id int) {
	sp := &r.spans[id-1]
	sp.End = time.Since(r.t0).Nanoseconds()
	sp.Allocs = int64(r.heapAllocs() - sp.allocs0)
}

func (r *recorder) counts(id int, counts map[string]float64) { r.spans[id-1].Counts = counts }

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer replays requests through the layers' public functions in the
// order core.Engine.queryUncached calls them, one span per layer. It uses
// the partition strategy with scan-eager SLCA on one goroutine, so every
// count repeats exactly for a given seed.
type tracer struct {
	rec  *recorder
	eng  *core.Engine
	ix   *index.Index
	gen  rules.Generator
	sf   searchfor.Options
	rank rank.Model
	k    int
	http bool // which encoder is on the workload's serving path

	wireBuf []byte
	httpBuf bytes.Buffer
	ids     []dewey.ID
}

func newTracer(eng *core.Engine, k int, overHTTP bool, reads int) *tracer {
	return &tracer{
		rec:  newRecorder(reads * 16),
		eng:  eng,
		ix:   eng.Index(),
		gen:  rules.Generator{Lexicon: lexicon.Builtin()},
		rank: rank.Default(),
		k:    k,
		http: overHTTP,
	}
}

// request runs one read through the pipeline and then the probes.
func (t *tracer) request(req int, q string) (*core.Response, error) {
	rec, ix := t.rec, t.ix
	root := rec.begin("request", 0, req, false)
	stages := rec.begin("engine", root, req, false)

	s := rec.begin("tokenize", stages, req, false)
	terms := tokenize.Query(q)
	rec.end(s)

	s = rec.begin("rules", stages, req, false)
	rs, err := t.gen.Generate(ix, terms)
	if err != nil {
		return nil, fmt.Errorf("rules.Generate %q: %w", q, err)
	}
	ruleList := rs.Rules()
	newKw := rs.NewKeywords(terms)
	rec.end(s)
	rec.counts(s, map[string]float64{"rules": float64(len(ruleList)), "new_keywords": float64(len(newKw))})

	s = rec.begin("searchfor", stages, req, false)
	inferTerms := append(append([]string(nil), terms...), newKw...)
	cands := searchfor.Infer(ix, inferTerms, &t.sf)
	judge := searchfor.NewJudge(cands)
	rec.end(s)
	rec.counts(s, map[string]float64{"candidates": float64(len(cands))})

	in := refine.Input{
		Index: ix, Query: terms, Rules: rs, Judge: judge,
		SLCA: slca.AlgoScanEager, Parallelism: 1,
		Budget: refine.NewBudget(context.Background(), 0),
	}
	b0, o0 := index.BlockStats(), ix.OpStats()
	s = rec.begin("refine", stages, req, false)
	out, err := refine.PartitionTopK(in, t.k)
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("refine.PartitionTopK %q: %w", q, err)
	}
	b1, o1 := index.BlockStats(), ix.OpStats()
	rec.counts(s, map[string]float64{
		"partitions":       float64(out.Partitions),
		"rq_generated":     float64(out.RQGenerated),
		"rq_pruned":        float64(out.RQPruned),
		"slca_calls":       float64(out.SLCACalls),
		"slca_postings":    float64(out.SLCAPostings),
		"block_decodes":    float64(b1.Decodes - b0.Decodes),
		"postings_decoded": float64(b1.DecodedPostings - b0.DecodedPostings),
		"cursor_gets":      float64(b1.CursorScratchGets - b0.CursorScratchGets),
		"cursor_news":      float64(b1.CursorScratchNews - b0.CursorScratchNews),
		"list_loads":       float64(o1.ListsLoaded - o0.ListsLoaded),
	})

	s = rec.begin("rank", stages, req, false)
	resp := &core.Response{Terms: terms, SearchFor: cands, Rules: ruleList}
	if err := t.rankInto(resp, out); err != nil {
		return nil, fmt.Errorf("rank %q: %w", q, err)
	}
	rec.end(s)
	rec.counts(s, map[string]float64{"candidates": float64(len(out.Candidates))})
	rec.end(stages)

	// Both encoders run on every response; the one that is not on this
	// workload's serving path is a probe.
	s = rec.begin("wire.encode", root, req, t.http)
	t.wireBuf = wire.AppendSearchBody(t.wireBuf[:0], resp, t.eng)
	rec.end(s)
	rec.counts(s, map[string]float64{"bytes": float64(len(t.wireBuf))})

	s = rec.begin("server.encode", root, req, !t.http)
	t.httpBuf.Reset()
	if err := server.EncodeBody(&t.httpBuf, server.SearchBody(t.eng, resp, nil)); err != nil {
		return nil, fmt.Errorf("server.EncodeBody %q: %w", q, err)
	}
	rec.end(s)
	rec.counts(s, map[string]float64{"bytes": float64(t.httpBuf.Len())})

	rec.end(root)
	if err := t.probes(root, req, terms, &in, resp); err != nil {
		return nil, fmt.Errorf("probe %q: %w", q, err)
	}
	return resp, nil
}

// rankInto is the ranking stage as core.Engine applies it to a top-K
// outcome: the original query short-circuits when it surfaced with
// results, otherwise candidates are scored by Formula 10 and cut to K.
func (t *tracer) rankInto(resp *core.Response, out *refine.TopKOutcome) error {
	for _, it := range out.Candidates {
		if it.RQ.DSim == 0 && it.RQ.SameKeywords(resp.Terms) {
			resp.Queries = []core.RankedQuery{{Keywords: it.RQ.Keywords, IsOriginal: true, Results: it.Results}}
			return nil
		}
	}
	resp.NeedRefine = true
	for _, it := range out.Candidates {
		sim := t.rank.Similarity(t.ix, resp.SearchFor, resp.Terms, it.RQ.Keywords, it.RQ.DSim)
		dep, err := t.rank.Dependence(t.ix, resp.SearchFor, it.RQ.Keywords)
		if err != nil {
			return err
		}
		resp.Queries = append(resp.Queries, core.RankedQuery{
			Keywords: it.RQ.Keywords, DSim: it.RQ.DSim,
			Score:    t.rank.Alpha*sim + t.rank.Beta*dep,
			SimScore: sim, DepScore: dep,
			Steps: it.RQ.Steps, Results: it.Results,
		})
	}
	sort.SliceStable(resp.Queries, func(i, j int) bool {
		if resp.Queries[i].Score != resp.Queries[j].Score {
			return resp.Queries[i].Score > resp.Queries[j].Score
		}
		return resp.Queries[i].DSim < resp.Queries[j].DSim
	})
	if len(resp.Queries) > t.k {
		resp.Queries = resp.Queries[:t.k]
	}
	return nil
}

// maxProbeIDs caps the Dewey labels the dewey probe compares per request.
const maxProbeIDs = 4096

// probes times the lower layers on this request's own inputs.
func (t *tracer) probes(root, req int, terms []string, in *refine.Input, resp *core.Response) error {
	rec, ix := t.rec, t.ix
	scan := in.ScanKeywords()

	// refine's dynamic program over the whole vocabulary of the request.
	avail := make(map[string]bool, len(scan))
	for _, kw := range scan {
		avail[kw] = ix.HasTerm(kw)
	}
	s := rec.begin("refine.dp", root, req, true)
	rqs := refine.TopRQs(terms, avail, in.Rules, 2*t.k)
	rec.end(s)
	rec.counts(s, map[string]float64{"rqs": float64(len(rqs))})

	lists := make([]*index.List, 0, len(scan))
	for _, kw := range scan {
		if !ix.HasTerm(kw) {
			continue
		}
		l, err := ix.List(kw)
		if err != nil {
			return err
		}
		lists = append(lists, l)
	}
	if len(lists) == 0 {
		return nil
	}

	// slca: one scan-eager computation over the full lists of the top
	// refined query.
	if len(resp.Queries) > 0 {
		var top []*index.List
		postings := 0
		for _, kw := range resp.Queries[0].Keywords {
			l, err := ix.List(kw)
			if err != nil {
				return err
			}
			top = append(top, l.View())
			postings += l.Len()
		}
		s = rec.begin("slca.compute", root, req, true)
		res := slca.Compute(slca.AlgoScanEager, top)
		rec.end(s)
		rec.counts(s, map[string]float64{"postings": float64(postings), "results": float64(len(res))})
	}

	// index: decode every scanned list once through a cursor.
	postings := 0
	s = rec.begin("index.decode", root, req, true)
	for _, l := range lists {
		c := l.View().NewCursor()
		for c.Valid() {
			postings++
			c.Next()
		}
		c.Close()
	}
	rec.end(s)
	rec.counts(s, map[string]float64{"postings": float64(postings)})

	// index: locate every partition's sub-list in the longest list.
	longest := lists[0]
	for _, l := range lists {
		if l.Len() > longest.Len() {
			longest = l
		}
	}
	roots := ix.PartitionRoots()
	view := longest.View()
	s = rec.begin("index.seek", root, req, true)
	hits := 0
	for _, r := range roots {
		if lo, hi := view.InSubtree(r); hi > lo {
			hits++
		}
	}
	rec.end(s)
	rec.counts(s, map[string]float64{"seeks": float64(len(roots)), "hits": float64(hits)})

	// dewey: order and common-prefix tests over adjacent labels of that
	// list, as the scan performs them.
	t.ids = t.ids[:0]
	for _, p := range longest.Slice(0, min(longest.Len(), maxProbeIDs)) {
		t.ids = append(t.ids, p.ID)
	}
	if len(t.ids) > 1 {
		sink := 0
		s = rec.begin("dewey.compare", root, req, true)
		for i := 1; i < len(t.ids); i++ {
			sink += dewey.Compare(t.ids[i-1], t.ids[i])
		}
		rec.end(s)
		rec.counts(s, map[string]float64{"pairs": float64(len(t.ids) - 1)})
		s = rec.begin("dewey.lca", root, req, true)
		for i := 1; i < len(t.ids); i++ {
			sink += dewey.LCALen(t.ids[i-1], t.ids[i])
		}
		rec.end(s)
		rec.counts(s, map[string]float64{"pairs": float64(len(t.ids) - 1), "sink": float64(sink)})
	}
	return nil
}

// spanTotals sums duration, allocations and counts per span name.
type spanTotals struct {
	ns, allocs float64
	n          int
	counts     map[string]float64
}

func (r *recorder) totals() map[string]*spanTotals {
	out := map[string]*spanTotals{}
	for i := range r.spans {
		sp := &r.spans[i]
		t := out[sp.Name]
		if t == nil {
			t = &spanTotals{counts: map[string]float64{}}
			out[sp.Name] = t
		}
		t.ns += sp.durNs()
		t.allocs += float64(sp.Allocs)
		t.n++
		for k, v := range sp.Counts {
			t.counts[k] += v
		}
	}
	return out
}

// perRequestUs returns, for requests 1..n, the duration of the engine span
// and the time its stage spans cover.
func (r *recorder) perRequestUs(n int) (engine, stages []float64) {
	engine, stages = make([]float64, n), make([]float64, n)
	for i := range r.spans {
		sp := &r.spans[i]
		switch {
		case sp.Name == "engine":
			engine[sp.Req-1] = sp.durNs() / 1e3
		case sp.Parent != 0 && r.spans[sp.Parent-1].Name == "engine":
			stages[sp.Req-1] += sp.durNs() / 1e3
		}
	}
	return engine, stages
}

// frameProbe times the wire codec around one response body: encode the
// request frame, decode it as the server does, decode the response frame
// as the client does.
func frameProbe(terms []string, k int, body []byte, reqBuf, respBuf []byte) ([]byte, []byte, time.Duration, error) {
	respBuf = append(respBuf[:0], wire.Version, wire.StatusOK, 0, 0, 0, 0, 0, 0, 0, 0)
	respBuf = append(respBuf, body...)
	var rq wire.Request
	var rs wire.Response
	t0 := time.Now()
	reqBuf = wire.AppendRequest(reqBuf[:0], 0, byte(core.StrategyPartition), k, 0, terms)
	if err := rq.Decode(reqBuf[4:]); err != nil {
		return reqBuf, respBuf, 0, err
	}
	if err := wire.DecodeResponse(respBuf, &rs); err != nil {
		return reqBuf, respBuf, 0, err
	}
	d := time.Since(t0)
	if len(rs.Payload) != len(body) {
		return reqBuf, respBuf, 0, fmt.Errorf("wire frame round trip lost %d bytes", len(body)-len(rs.Payload))
	}
	return reqBuf, respBuf, d, nil
}

// tracePath names the span file of one workload.
func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, "trace_"+workload+".jsonl")
}
