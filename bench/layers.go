package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/mutate"
	"xrefine/internal/obs"
	"xrefine/internal/shard"
	"xrefine/internal/storage"
	"xrefine/internal/storage/backends"
	"xrefine/internal/wire"
)

// storageKinds are the engine names the storage probes try; a name
// storage.ParseKind rejects is skipped, so retiring an engine does not
// break the benchmark.
var storageKinds = []string{"btree", "log"}

// registryFamilies reads a metrics registry the way a scrape would.
func registryFamilies(reg *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseFamilies(&buf)
}

// querier is the in-process query surface the engine and the shard router
// share.
type querier interface {
	QueryTermsCtx(ctx context.Context, terms []string, strategy core.Strategy, k, parallelism int) (*core.Response, error)
}

// target is one way of answering a request; the traced run answers every
// request through all of them and times each.
type target struct {
	name string
	do   func(i int) error
	us   []float64
}

// meanUs is the target's mean time per request.
func (t *target) meanUs() float64 { return mean(t.us) }

// medianOver is the median over requests of f(a[i], b[i]). Differences
// between targets are read request by request and by their median: the
// pairing removes the query mix, the median the odd collection or
// neighbour that lands on one side.
func medianOver(a, b []float64, f func(x, y float64) float64) float64 {
	v := make([]float64, len(a))
	for i := range a {
		v[i] = f(a[i], b[i])
	}
	return median(v)
}

func diff(x, y float64) float64 { return x - y }

// runTargets answers each request through every target. Targets take
// turns going first: on a two-core sandbox a collection or a neighbour
// slows whatever runs during it by a tenth, and the differences between
// in-process targets — tracing overhead, what a router adds — are smaller
// than that, so they are only readable when every target meets the same
// disturbances. A single target is simply a closed loop.
func runTargets(targets []*target, n int) error {
	for i := 0; i < n; i++ {
		for j := range targets {
			t := targets[(i+j)%len(targets)]
			t0 := time.Now()
			if err := t.do(i); err != nil {
				return fmt.Errorf("%s: %w", t.name, err)
			}
			t.us = append(t.us, us(time.Since(t0)))
		}
	}
	return nil
}

// runTrace is the traced run of workload w. Its requests are answered by
// the engine, by the same pipeline rebuilt from the layers' public
// functions with a span around every call, and by a real server on both
// surfaces; probes time the layers below on the same inputs. The layers
// only one workload deploys are measured on that workload: the shard
// router on sharded_http, the storage engines and the write path on
// live_update. It yields the per-layer metrics and writes the spans.
func (b *bench) runTrace(w workload, outDir string) (*workloadResult, error) {
	res := &workloadResult{Valid: true, PerLayer: metricSet{}, Scoped: metricSet{}}
	m := res.PerLayer
	dir := filepath.Join(b.tmp, w.name+"-trace")
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	scale := b.scaleOf(w)

	c, err := buildCorpus(scale, true)
	if err != nil {
		return nil, err
	}
	m.one("xmltree.parse_ms", "ms", c.parseMs)
	m.one("xmltree.nodes", "count", float64(c.doc.NodeCount))
	m.one("xmltree.doc_mb", "MB", c.docMB)
	m.one("index.build_ms", "ms", c.buildMs)

	reads := b.cfg.traceReads
	reqs, err := genRequests(w, c, b.cfg.seed, reads)
	if err != nil {
		return nil, err
	}
	res.Requests, res.Corpus = reads, c.info()

	storePath := filepath.Join(dir, "index.kv")
	t0 := time.Now()
	if err := c.saveStore(storage.KindBTree, storePath); err != nil {
		return nil, err
	}
	m.one("index.save_ms", "ms", ms(time.Since(t0)))

	if w.live {
		if err := storageProbes(c, dir, res.Scoped); err != nil {
			return nil, err
		}
	}

	// The in-process engine is opened from the store, as xserve opens it.
	store, err := backends.Open(storage.KindBTree, storePath, &storage.Options{ReadOnly: true})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	eng, err := core.Open(store, nil)
	if err != nil {
		return nil, err
	}
	ix := eng.Index()

	// Cold list loads, which also leave every list resident for what
	// follows.
	vocab := ix.Vocabulary()
	t0 = time.Now()
	for _, term := range vocab {
		if _, err := ix.List(term); err != nil {
			return nil, err
		}
	}
	m.one("index.list_load_us", "us", us(time.Since(t0))/float64(len(vocab)))
	m.one("index.resident_mb", "MB", float64(ix.ResidentBytes())/(1<<20))

	// An in-process router over stores of its own, laid out as the
	// server's are.
	var router *shard.Router
	if w.shards > 0 {
		sdir := filepath.Join(dir, "probe-shards")
		if _, err := shard.WriteReplicatedStores(c.doc, sdir, w.shards, shard.ModeRange, w.replicas); err != nil {
			return nil, err
		}
		if router, err = shard.Open(sdir, nil); err != nil {
			return nil, err
		}
		defer router.Close()
	}

	// The real server, on w's own deployment.
	dep, err := deploy(w, c, filepath.Join(dir, "serve"), false)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(b.bin, dep.args)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	withLog := func(err error) error { return fmt.Errorf("%w\nxserve output:\n%s", err, srv.stderr.String()) }
	wireRd, err := newReader(srv, false, w.k)
	if err != nil {
		return nil, withLog(err)
	}
	defer wireRd.close()
	httpRd, err := newReader(srv, true, w.k)
	if err != nil {
		return nil, withLog(err)
	}
	defer httpRd.close()

	tr := newTracer(eng, w.k, w.http, reads)
	want := make([]*core.Response, reads)
	got := make([]*core.Response, reads)
	var seqAllocs uint64
	var served readStats
	query := func(be querier, i, parallelism int) (*core.Response, error) {
		return be.QueryTermsCtx(context.Background(), reqs[i].terms, core.StrategyPartition, w.k, parallelism)
	}
	read := func(rd reader, i int) error {
		body, err := rd.read(&reqs[i])
		if err == nil {
			err = quickCheck(body)
		}
		if err != nil {
			served.failure(fmt.Errorf("read %q: %w", reqs[i].q, err))
		}
		return nil
	}
	targets := []*target{
		// The engine as the server runs it: every core.
		{name: "core.parallel", do: func(i int) error { _, err := query(eng, i, 0); return err }},
		// The engine on one goroutine: the like-for-like base of the
		// traced pipeline.
		{name: "core", do: func(i int) (err error) {
			a0 := tr.rec.heapAllocs()
			want[i], err = query(eng, i, 1)
			seqAllocs += tr.rec.heapAllocs() - a0
			return err
		}},
		{name: "traced", do: func(i int) (err error) { got[i], err = tr.request(i+1, reqs[i].q); return err }},
	}
	if router != nil {
		targets = append(targets, &target{name: "shard", do: func(i int) error { _, err := query(router, i, 0); return err }})
	}
	// The server is read in a closed loop of its own, one surface after
	// the other, as the end-to-end run reads it: a server that sits idle
	// while the in-process targets take their turns answers from cold
	// caches, several milliseconds slower.
	surfaces := []*target{
		{name: "wire", do: func(i int) error { return read(wireRd, i) }},
		{name: "http", do: func(i int) error { return read(httpRd, i) }},
	}
	byName := map[string]*target{}
	for _, t := range append(targets, surfaces...) {
		byName[t.name] = t
	}

	// An untimed pass pays what only the first queries pay: vocabulary
	// tables, co-occurrence memos, the server's lazy list loads.
	nWarm := min(b.cfg.warmup, reads)
	if err := runTargets(targets, nWarm); err != nil {
		return nil, err
	}
	for _, s := range surfaces {
		if err := runTargets([]*target{s}, nWarm); err != nil {
			return nil, withLog(err)
		}
	}
	for _, t := range byName {
		t.us = t.us[:0]
	}
	tr.rec = newRecorder(reads * 16)
	seqAllocs, served = 0, readStats{}
	engFam0, err := registryFamilies(eng.Metrics())
	if err != nil {
		return nil, err
	}
	var shardFam0 map[string]float64
	if router != nil {
		if shardFam0, err = registryFamilies(router.Metrics()); err != nil {
			return nil, err
		}
	}
	if err := runTargets(targets, reads); err != nil {
		return nil, err
	}
	self0, t0 := selfCPUSeconds(), time.Now()
	for _, s := range surfaces {
		if err := runTargets([]*target{s}, reads); err != nil {
			return nil, withLog(err)
		}
	}
	m.one("bench.client_cpu_share", "ratio", ratio(selfCPUSeconds()-self0, time.Since(t0).Seconds()))
	res.checkLoadGenerator(m["bench.client_cpu_share"].Value, 0)
	engFam1, err := registryFamilies(eng.Metrics())
	if err != nil {
		return nil, err
	}
	res.Attempted += 3 * reads // traced, wire, http: the answers that are checked
	if served.failed > 0 {
		res.fail(served.failed, "%d reads from the server failed, first: %v", served.failed, served.firstErr)
	}
	if err := tr.rec.write(tracePath(outDir, w.name)); err != nil {
		return nil, err
	}

	n := float64(reads)
	coreT, parT := byName["core"], byName["core.parallel"]
	m.one("core.us_per_req", "us", coreT.meanUs())
	m.one("core.parallel_us_per_req", "us", parT.meanUs())
	m.one("core.allocs_per_req", "count", float64(seqAllocs)/n)
	delta := func(f1, f0 map[string]float64, name string) float64 { return f1[name] - f0[name] }
	// Three of the targets read through the engine's store.
	m.one("storage.page_reads_per_req", "count", delta(engFam1, engFam0, "xrefine_kvstore_page_reads_total")/(3*n))
	// What a serving surface adds to the in-process answer of the same
	// deployment.
	inProc := parT
	if router != nil {
		inProc = byName["shard"]
		shardFam1, err := registryFamilies(router.Metrics())
		if err != nil {
			return nil, err
		}
		res.Scoped.one("shard.us_per_req", "us", inProc.meanUs())
		res.Scoped.one("shard.overhead_us_per_req", "us", medianOver(inProc.us, parT.us, diff))
		res.Scoped.one("shard.merge_us_per_req", "us", delta(shardFam1, shardFam0, "xrefine_shard_merge_seconds_sum")*1e6/n)
		res.Scoped.one("shard.hedges_per_req", "count", delta(shardFam1, shardFam0, "xrefine_replica_hedges_total")/n)
	}
	m.one("wire.overhead_ms_per_req", "ms", medianOver(byName["wire"].us, inProc.us, diff)/1e3)
	m.one("server.overhead_ms_per_req", "ms", medianOver(byName["http"].us, inProc.us, diff)/1e3)
	layerMetrics(tr.rec, n, m)
	// The engine span is the traced counterpart of Engine.QueryTermsCtx,
	// and its stage spans should account for all of the untraced time.
	engineUs, stageUs := tr.rec.perRequestUs(reads)
	pctOver := func(x, y float64) float64 { return ratio(x-y, y) * 100 }
	m.one("bench.trace_overhead_pct", "%", medianOver(engineUs, coreT.us, pctOver))
	m.one("bench.pipeline_coverage_pct", "%", 100+medianOver(stageUs, coreT.us, pctOver))

	// The pipeline rebuilt from the layers must answer exactly as the
	// engine does, or its spans describe some other program.
	var frameNs float64
	var a, e, reqBuf, respBuf []byte
	for i := range reqs {
		a = wire.AppendSearchBody(a[:0], got[i], eng)
		e = wire.AppendSearchBody(e[:0], want[i], eng)
		if !bytes.Equal(a, e) {
			res.fail(1, "traced pipeline and core.Engine disagree on %q", reqs[i].q)
		}
		var d time.Duration
		if reqBuf, respBuf, d, err = frameProbe(got[i].Terms, w.k, a, reqBuf, respBuf); err != nil {
			return nil, err
		}
		frameNs += float64(d.Nanoseconds())
	}
	m.one("wire.frame_us_per_req", "us", frameNs/1e3/n)

	wireRd.close()
	httpRd.close()
	srv.stop()
	stopped = true

	if w.live {
		if err := updateProbe(b, w, storePath, dir, res.Scoped); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layerMetrics turns the recorded spans into the per-layer metrics.
func layerMetrics(rec *recorder, n float64, m metricSet) {
	tot := rec.totals()
	get := func(name string) *spanTotals {
		if t := tot[name]; t != nil {
			return t
		}
		return &spanTotals{counts: map[string]float64{}}
	}
	perReqUs := func(name string) float64 { return get(name).ns / 1e3 / n }

	m.one("tokenize.us_per_req", "us", perReqUs("tokenize"))

	ru := get("rules")
	m.one("rules.us_per_req", "us", perReqUs("rules"))
	m.one("rules.allocs_per_req", "count", ru.allocs/n)
	m.one("rules.rules_per_req", "count", ru.counts["rules"]/n)
	m.one("rules.new_keywords_per_req", "count", ru.counts["new_keywords"]/n)

	m.one("searchfor.us_per_req", "us", perReqUs("searchfor"))
	m.one("searchfor.candidates_per_req", "count", get("searchfor").counts["candidates"]/n)

	rf := get("refine")
	dp, sl, dec := get("refine.dp"), get("slca.compute"), get("index.decode")
	self := (rf.ns - dp.ns - sl.ns - dec.ns) / 1e3 / n
	if self < 0 {
		self = 0
	}
	m.one("refine.us_per_req", "us", perReqUs("refine"))
	m.one("refine.self_us_per_req", "us", self)
	m.one("refine.allocs_per_req", "count", rf.allocs/n)
	m.one("refine.partitions_per_req", "count", rf.counts["partitions"]/n)
	m.one("refine.rq_generated_per_req", "count", rf.counts["rq_generated"]/n)
	m.one("refine.rq_pruned_per_req", "count", rf.counts["rq_pruned"]/n)
	m.one("refine.prune_ratio", "ratio", ratio(rf.counts["rq_pruned"], rf.counts["rq_generated"]))
	m.one("refine.dp_us_per_call", "us", ratio(dp.ns/1e3, float64(dp.n)))

	m.one("slca.calls_per_req", "count", rf.counts["slca_calls"]/n)
	m.one("slca.postings_per_req", "count", rf.counts["slca_postings"]/n)
	m.one("slca.us_per_call", "us", ratio(sl.ns/1e3, float64(sl.n)))
	m.one("slca.ns_per_posting", "ns", ratio(sl.ns, sl.counts["postings"]))

	m.one("index.block_decodes_per_req", "count", rf.counts["block_decodes"]/n)
	m.one("index.postings_decoded_per_req", "count", rf.counts["postings_decoded"]/n)
	m.one("index.cursor_pool_miss_ratio", "ratio", ratio(rf.counts["cursor_news"], rf.counts["cursor_gets"]))
	m.one("index.list_loads_per_req", "count", rf.counts["list_loads"]/n)
	m.one("index.decode_ns_per_posting", "ns", ratio(dec.ns, dec.counts["postings"]))
	sk := get("index.seek")
	m.one("index.seek_ns", "ns", ratio(sk.ns, sk.counts["seeks"]))

	cmp, lca := get("dewey.compare"), get("dewey.lca")
	m.one("dewey.compare_ns", "ns", ratio(cmp.ns, cmp.counts["pairs"]))
	m.one("dewey.lca_ns", "ns", ratio(lca.ns, lca.counts["pairs"]))

	m.one("rank.us_per_req", "us", perReqUs("rank"))

	we := get("wire.encode")
	m.one("wire.encode_us_per_req", "us", perReqUs("wire.encode"))
	m.one("wire.encode_allocs_per_req", "count", we.allocs/n)
	m.one("wire.encode_ns_per_kb", "ns", ratio(we.ns, we.counts["bytes"]/1024))
	m.one("wire.resp_kb_per_req", "KB", we.counts["bytes"]/1024/n)
	m.one("server.encode_us_per_req", "us", perReqUs("server.encode"))
}

// storageProbes saves the index into each storage engine and times the
// engine's own operations on it.
func storageProbes(c *corpus, dir string, m metricSet) error {
	for _, name := range storageKinds {
		kind, err := storage.ParseKind(name)
		if err != nil {
			continue
		}
		path := filepath.Join(dir, "probe-"+name)
		if err := c.saveStore(kind, path); err != nil {
			return err
		}
		size, err := diskBytes(path)
		if err != nil {
			return err
		}
		pre := "storage." + name + "."
		m.one(pre+"disk_bytes_per_doc_byte", "ratio", ratio(float64(size), float64(c.xmlBytes)))

		t0 := time.Now()
		st, err := backends.Open(kind, path, &storage.Options{ReadOnly: true})
		if err != nil {
			return err
		}
		m.one(pre+"open_ms", "ms", ms(time.Since(t0)))

		var keys [][]byte
		t0 = time.Now()
		err = st.Range(nil, nil, func(k, _ []byte) bool {
			keys = append(keys, append([]byte(nil), k...))
			return true
		})
		m.one(pre+"range_ms", "ms", ms(time.Since(t0)))
		if err == nil && len(keys) == 0 {
			err = fmt.Errorf("%s store holds no keys", name)
		}
		if err != nil {
			st.Close()
			return err
		}
		t0 = time.Now()
		for _, k := range keys {
			if _, ok, err := st.Get(k); err != nil || !ok {
				st.Close()
				return fmt.Errorf("%s store: get %q: found=%v err=%v", name, k, ok, err)
			}
		}
		m.one(pre+"get_us", "us", us(time.Since(t0))/float64(len(keys)))
		if err := st.Close(); err != nil {
			return err
		}

		// Commit cost: batches of eight rewritten values, one commit each.
		st, err = backends.Open(kind, path, nil)
		if err != nil {
			return err
		}
		const batches, perBatch = 16, 8
		t0 = time.Now()
		for i := 0; i < batches && err == nil; i++ {
			for j := 0; j < perBatch && err == nil; j++ {
				k := keys[(i*perBatch+j)%len(keys)]
				var v []byte
				if v, _, err = st.Get(k); err == nil {
					err = st.Put(k, v)
				}
			}
			if err == nil {
				err = st.Commit()
			}
		}
		m.one(pre+"commit_ms_per_batch", "ms", ms(time.Since(t0))/batches)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s store commit probe: %w", name, err)
		}
	}
	return nil
}

// updateProbe applies update batches to a live in-process engine on a copy
// of the store and reads what each commit cost.
func updateProbe(b *bench, w workload, storePath, dir string, m metricSet) error {
	live := filepath.Join(dir, "live.kv")
	if err := copyFile(storePath, live); err != nil {
		return err
	}
	st, err := backends.Open(storage.KindBTree, live, nil)
	if err != nil {
		return err
	}
	defer st.Close()
	eng, err := core.OpenLive(st, live+".wal", &core.Config{Parallelism: 1})
	if err != nil {
		return err
	}
	defer eng.Close()
	batches, err := genUpdates(b.scaleOf(w), b.cfg.seed, 0, b.cfg.traceBatches, updateOps)
	if err != nil {
		return err
	}
	f0, err := registryFamilies(eng.Metrics())
	if err != nil {
		return err
	}
	var stageNs, applyNs, walBytes, ops float64
	for i, batch := range batches {
		t0 := time.Now()
		if _, err := mutate.Stage(eng.Document(), eng.Index(), batch); err != nil {
			return fmt.Errorf("stage batch %d: %w", i, err)
		}
		t1 := time.Now()
		r, err := eng.Apply(batch)
		if err != nil {
			return fmt.Errorf("apply batch %d: %w", i, err)
		}
		applyNs += float64(time.Since(t1).Nanoseconds())
		stageNs += float64(t1.Sub(t0).Nanoseconds())
		walBytes += float64(r.WALBytes)
		ops += float64(len(batch.Ops))
	}
	f1, err := registryFamilies(eng.Metrics())
	if err != nil {
		return err
	}
	n := float64(len(batches))
	m.one("core.apply_ms_per_batch", "ms", applyNs/1e6/n)
	m.one("mutate.stage_ms_per_batch", "ms", stageNs/1e6/n)
	m.one("mutate.wal_bytes_per_op", "B", walBytes/ops)
	m.one("storage.page_writes_per_batch", "count", (f1["xrefine_kvstore_page_writes_total"]-f0["xrefine_kvstore_page_writes_total"])/n)
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
