package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/mutate"
	"xrefine/internal/server"
	"xrefine/internal/wire"
)

// config sizes a run. The defaults are what BENCHMARK.json pins; the smoke
// test shrinks every field.
type config struct {
	seed int64
	// seconds is the timed window of one workload, split evenly over the
	// rounds.
	seconds float64
	rounds  int
	// scale > 0 replaces every workload's corpus scale, and countReads > 0
	// every workload's fixed-count reads.
	scale      float64
	countReads int
	// warmup is the number of untimed reads that open each round; they
	// page in the lazily loaded posting lists and count as set-up.
	warmup int
	// traceReads and traceBatches size the traced run.
	traceReads, traceBatches int
	// writeEvery is the open-loop writer's period.
	writeEvery time.Duration
}

func defaultConfig() config {
	return config{
		seed: 11, seconds: 15, rounds: 5, warmup: 100,
		traceReads: 200, traceBatches: 20,
		writeEvery: 100 * time.Millisecond,
	}
}

// updateOps is the number of operations in one update batch.
const updateOps = 8

// maxQPS bounds how many requests are generated for a timed window. A
// window that uses them all ends early rather than repeat a query, which
// would hand a cache hits on a workload meant to bypass it.
const maxQPS = 2500

// bench carries what every run shares: the configuration, the compiled
// server and a scratch directory inside the benchmark's own tree.
type bench struct {
	cfg config
	bin string
	tmp string
}

// scaleOf is the corpus scale workload w runs at.
func (b *bench) scaleOf(w workload) float64 {
	if b.cfg.scale > 0 {
		return b.cfg.scale
	}
	return w.scale
}

// countReadsOf is the number of fixed-count reads that open each round of w.
func (b *bench) countReadsOf(w workload) int {
	if b.cfg.countReads > 0 {
		return b.cfg.countReads
	}
	return w.countReads
}

// window is the time box of one round.
func (b *bench) window() time.Duration {
	return time.Duration(b.cfg.seconds / float64(b.cfg.rounds) * float64(time.Second))
}

// workloadResult is everything one workload reported in one mode.
type workloadResult struct {
	EndToEnd metricSet `json:"end_to_end,omitempty"`
	PerLayer metricSet `json:"per_layer,omitempty"`
	// Scoped holds the per-layer metrics of the layers only this workload
	// deploys; BENCHMARK.json lists none of them, since a driver wants
	// every listed metric from every workload.
	Scoped    metricSet `json:"per_layer_scoped,omitempty"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Valid is false when the load generator itself limited the run; the
	// reasons are in Notes, the run exits non-zero and -compare refuses it.
	Valid bool     `json:"valid"`
	Notes []string `json:"notes,omitempty"`
	// Requests is the number of reads generated per round (the time box
	// may end before they are used up); CountReads of them are the
	// fixed-count reads the count metrics are taken over.
	Requests   int `json:"requests_per_round"`
	CountReads int `json:"count_reads_per_round,omitempty"`
	// Corpus sizes the document the workload ran on.
	Corpus corpusInfo `json:"corpus"`
}

func (r *workloadResult) fail(n int, format string, a ...any) {
	r.Failed += n
	if len(r.Notes) < 20 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
	}
}

// checkLoadGenerator marks the result invalid when the load generator, not
// the server, shaped the numbers: it used too much of a CPU, or the
// open-loop writer could not keep its schedule.
func (r *workloadResult) checkLoadGenerator(clientCPUShare, writerLateP95Ms float64) {
	if clientCPUShare > maxClientCPUShare {
		r.Valid = false
		r.Notes = append(r.Notes, fmt.Sprintf("invalid: load generator used %.2f of a CPU (limit %.2f)", clientCPUShare, maxClientCPUShare))
	}
	if writerLateP95Ms > maxWriterLateMs {
		r.Valid = false
		r.Notes = append(r.Notes, fmt.Sprintf("invalid: writer ran %.1f ms late at p95 (limit %.0f)", writerLateP95Ms, maxWriterLateMs))
	}
}

// reader is one closed-loop client connection. The payload read returns
// is valid until the next call.
type reader interface {
	read(rq *request) ([]byte, error)
	close()
}

type wireReader struct {
	c *wire.Client
	k int
}

func (r *wireReader) read(rq *request) ([]byte, error) {
	resp, err := r.c.Query(0, byte(core.StrategyPartition), r.k, 0, rq.terms)
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StatusOK {
		return nil, fmt.Errorf("wire status %d code %d: %s", resp.Status, resp.Code, resp.Payload)
	}
	return resp.Payload, nil
}

func (r *wireReader) close() { r.c.Close() }

type httpReader struct {
	c    *http.Client
	base string
	buf  bytes.Buffer
}

func (r *httpReader) read(rq *request) ([]byte, error) {
	resp, err := r.c.Get(r.base + url.QueryEscape(rq.q))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	r.buf.Reset()
	if _, err := io.Copy(&r.buf, resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %s: %s", resp.Status, bytes.TrimSpace(r.buf.Bytes()))
	}
	return r.buf.Bytes(), nil
}

func (r *httpReader) close() { r.c.CloseIdleConnections() }

func newReader(s *xserve, overHTTP bool, k int) (reader, error) {
	if overHTTP {
		return &httpReader{
			c:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
			base: s.url("/search?k=" + strconv.Itoa(k) + "&q="),
		}, nil
	}
	c, err := wire.Dial(s.wireAddr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial wire: %w", err)
	}
	return &wireReader{c: c, k: k}, nil
}

// preloadLists makes every posting list of a live server resident, one
// single-term read per vocabulary term, before the first write. A list
// that is lazily loaded from the store while a commit is rewriting the
// store can come back torn — about one read in 25 000 beside this writer
// fails with "index: parse block 0: bad posting count" (see README.md,
// Findings) — and a workload must not depend on losing that race rarely.
func preloadLists(rd reader, c *corpus) error {
	for _, term := range c.ix.Vocabulary() {
		if _, err := rd.read(&request{q: term, terms: []string{term}}); err != nil {
			return fmt.Errorf("preload list %q: %w", term, err)
		}
	}
	return nil
}

// quickCheck is the answer check every read gets, cheap enough to leave
// the closed loop tight: the body is a JSON object, it is not a degraded
// partial answer, and no returned query has an empty result list, which
// is Definition 3.4 for a refined response and non-emptiness for an
// unrefined one.
func quickCheck(p []byte) error {
	switch {
	case len(p) < 2 || p[0] != '{':
		return fmt.Errorf("body is not a JSON object")
	case bytes.Contains(p, []byte(`"degraded": true`)):
		return fmt.Errorf("degraded response")
	case bytes.Contains(p, []byte(`"results": []`)):
		return fmt.Errorf("a returned query has no result (Def 3.4)")
	}
	return nil
}

// deepCheck parses a body and compares it with the reference engine's
// answer to the same terms and K: the refined queries, their
// dissimilarity and how many results each has.
func deepCheck(p []byte, ref *core.Response) error {
	var got server.SearchJSON
	if err := json.Unmarshal(p, &got); err != nil {
		return fmt.Errorf("body does not parse: %w", err)
	}
	if got.NeedRefine != ref.NeedRefine {
		return fmt.Errorf("need_refine %v, reference %v", got.NeedRefine, ref.NeedRefine)
	}
	if len(got.Queries) != len(ref.Queries) {
		return fmt.Errorf("%d queries, reference %d", len(got.Queries), len(ref.Queries))
	}
	for i, q := range got.Queries {
		want := ref.Queries[i]
		if fmt.Sprint(q.Keywords) != fmt.Sprint(want.Keywords) {
			return fmt.Errorf("query %d keywords %v, reference %v", i, q.Keywords, want.Keywords)
		}
		if math.Abs(q.DSim-want.DSim) > 1e-9 {
			return fmt.Errorf("query %d dsim %v, reference %v", i, q.DSim, want.DSim)
		}
		if len(q.Results) != len(want.Results) {
			return fmt.Errorf("query %d has %d results, reference %d", i, len(q.Results), len(want.Results))
		}
	}
	return nil
}

// readStats is what one closed-loop read pass observed.
type readStats struct {
	latMs []float64
	// start and end of each read, for attributing reader stalls to
	// commits.
	startAt, endAt []time.Time
	bytes          int64
	failed         int
	firstErr       error
	// kept are copies of the bodies picked for the deep check, with the
	// request each answered.
	kept []keptBody
}

type keptBody struct {
	rq   *request
	body []byte
}

func (st *readStats) failure(err error) {
	st.failed++
	if st.firstErr == nil {
		st.firstErr = err
	}
}

// add appends what a later pass of the same reader observed.
func (st *readStats) add(o readStats) {
	st.latMs = append(st.latMs, o.latMs...)
	st.startAt = append(st.startAt, o.startAt...)
	st.endAt = append(st.endAt, o.endAt...)
	st.bytes += o.bytes
	st.failed += o.failed
	if st.firstErr == nil {
		st.firstErr = o.firstErr
	}
	st.kept = append(st.kept, o.kept...)
}

// readLoop issues reqs one after another until stop reports true or the
// list ends. Every keepEvery-th body is copied for the deep check, which
// runs after the timed window so that its cost is not measured.
func readLoop(rd reader, reqs []request, keepEvery int, stop func(done int) bool) readStats {
	var st readStats
	for i := range reqs {
		if stop(i) {
			break
		}
		t0 := time.Now()
		body, err := rd.read(&reqs[i])
		t1 := time.Now()
		st.latMs = append(st.latMs, ms(t1.Sub(t0)))
		st.startAt = append(st.startAt, t0)
		st.endAt = append(st.endAt, t1)
		if err == nil {
			err = quickCheck(body)
		}
		if err != nil {
			st.failure(fmt.Errorf("read %q: %w", reqs[i].q, err))
			continue
		}
		st.bytes += int64(len(body))
		if keepEvery > 0 && i%keepEvery == 0 {
			st.kept = append(st.kept, keptBody{&reqs[i], append([]byte(nil), body...)})
		}
	}
	return st
}

// verifyKept runs the deep check of every kept body against ref.
func verifyKept(st *readStats, ref *core.Engine, k int) {
	for _, kb := range st.kept {
		want, err := ref.QueryTermsCtx(context.Background(), kb.rq.terms, core.StrategyPartition, k, 0)
		if err == nil {
			err = deepCheck(kb.body, want)
		}
		if err != nil {
			st.failure(fmt.Errorf("check %q: %w", kb.rq.q, err))
		}
	}
}

// writeStats is what the open-loop writer observed.
type writeStats struct {
	// ackMs is acknowledgement time minus due time; lateMs is send time
	// minus due time, the generator's own lag.
	ackMs, lateMs []float64
	ackAt         []time.Time
	failed        int
	firstErr      error
}

// writeLoop posts one batch every period, on schedule whether or not the
// previous one has been acknowledged in time, and checks each answer's
// epoch.
func writeLoop(s *xserve, batches []*mutate.Batch, every time.Duration) writeStats {
	var st writeStats
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		bodies[i], _ = json.Marshal(b) // a Batch of strings and labels always marshals
	}
	start := time.Now()
	for i, body := range bodies {
		due := start.Add(time.Duration(i) * every)
		time.Sleep(time.Until(due))
		sent := time.Now()
		err := postUpdate(s, body, uint64(i+1))
		ack := time.Now()
		st.ackMs = append(st.ackMs, ms(ack.Sub(due)))
		st.lateMs = append(st.lateMs, ms(sent.Sub(due)))
		st.ackAt = append(st.ackAt, ack)
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("batch %d: %w", i, err)
			}
		}
	}
	return st
}

func postUpdate(s *xserve, body []byte, wantEpoch uint64) error {
	resp, err := s.client.Post(s.url("/update"), "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /update: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var ack struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(b, &ack); err != nil {
		return err
	}
	if ack.Epoch != wantEpoch {
		return fmt.Errorf("acknowledged epoch %d, want %d", ack.Epoch, wantEpoch)
	}
	return nil
}

// readBesideWrites runs the writer and one closed-loop reader together;
// the reader stops when the last write has been acknowledged.
func readBesideWrites(s *xserve, rd reader, reqs []request, batches []*mutate.Batch, every time.Duration) (readStats, writeStats) {
	done := make(chan writeStats, 1)
	go func() { done <- writeLoop(s, batches, every) }()
	var ws writeStats
	finished := false
	rs := readLoop(rd, reqs, 0, func(int) bool {
		select {
		case ws = <-done:
			finished = true
		default:
		}
		return finished
	})
	if !finished { // the request list ran out first
		ws = <-done
	}
	return rs, ws
}

// readerStallMs is the longest read that was in flight while a commit was
// acknowledged: what an epoch swap costs the reader it overlaps.
func readerStallMs(rs readStats, ws writeStats) float64 {
	var worst float64
	j := 0
	for _, ack := range ws.ackAt {
		for j < len(rs.endAt) && rs.endAt[j].Before(ack) {
			j++
		}
		if j < len(rs.endAt) && !rs.startAt[j].After(ack) {
			worst = math.Max(worst, rs.latMs[j])
		}
	}
	return worst
}

// durabilityCheck is run after the server was killed with SIGKILL: a new
// server on the same store and WAL must come back at the epoch of the last
// acknowledged batch and must find the term that batch inserted.
func (b *bench) durabilityCheck(d *deployment, wantEpoch uint64, sentinel string) error {
	s, err := startServer(b.bin, d.args)
	if err != nil {
		return fmt.Errorf("restart after kill: %w", err)
	}
	defer s.stop()
	h, err := s.health()
	if err != nil {
		return err
	}
	if h.Epoch != wantEpoch {
		return fmt.Errorf("restarted at epoch %d, acknowledged %d", h.Epoch, wantEpoch)
	}
	body, err := s.get("/search?k=1&q=" + url.QueryEscape(sentinel))
	if err != nil {
		return err
	}
	var got server.SearchJSON
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.NeedRefine || len(got.Queries) != 1 || len(got.Queries[0].Results) == 0 {
		return fmt.Errorf("term %q of the last acknowledged batch is not queryable after restart", sentinel)
	}
	return nil
}

// roundOut is one round's raw observations.
type roundOut struct {
	setupS float64
	// timed holds the wall and CPU time of the reads in reads; counted are
	// the round's fixed-count reads, with the server's allocations across
	// exactly those.
	timed               meter
	reads, counted      readStats
	mallocs, allocBytes float64
	writes              writeStats
	rssMB, stallMs      float64
	diskBytes           int64
	xmlBytes            int
}

// meter adds up wall time, server CPU time and load-generator CPU time
// over the stretches of a round that are timed.
type meter struct{ wallS, serverCPUS, clientCPUS float64 }

func (m *meter) measure(srv *xserve, f func()) error {
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	self0, t0 := selfCPUSeconds(), time.Now()
	f()
	m.wallS += time.Since(t0).Seconds()
	m.clientCPUS += selfCPUSeconds() - self0
	cpu1, err := srv.cpuSeconds()
	m.serverCPUS += cpu1 - cpu0
	return err
}

// round runs one round of w: set up a fresh deployment, warm it, measure,
// check the answers, tear everything down. The measurement opens with the
// round's fixed-count reads, bracketed by two readings of the server's
// allocation counters; the time box governs only when it ends. On a static
// workload the fixed-count reads are the first of the timed window. On
// live_update they precede the writer and are not timed: commits allocate
// too, and how many of them fall beside a fixed number of reads depends on
// how fast the machine is.
func (b *bench) round(w workload, n int, reqs []request, batches []*mutate.Batch, ref *core.Engine) (out roundOut, err error) {
	dir := filepath.Join(b.tmp, fmt.Sprintf("%s-r%d", w.name, n))
	defer os.RemoveAll(dir)

	// Set-up, timed: everything between "no data" and "warm server".
	t0 := time.Now()
	c, err := buildCorpus(b.scaleOf(w), false)
	if err != nil {
		return out, err
	}
	dep, err := deploy(w, c, dir, w.live)
	if err != nil {
		return out, err
	}
	srv, err := startServer(b.bin, dep.args)
	if err != nil {
		return out, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
		if err != nil {
			err = fmt.Errorf("%w\nxserve output:\n%s", err, srv.stderr.String())
		}
	}()
	rd, err := newReader(srv, w.http, w.k)
	if err != nil {
		return out, err
	}
	defer rd.close()
	toEnd := func(int) bool { return false }
	warm := readLoop(rd, reqs[:b.cfg.warmup], 0, toEnd)
	if warm.failed > 0 {
		return out, fmt.Errorf("warm-up: %d reads failed, first: %w", warm.failed, warm.firstErr)
	}
	if w.live {
		if err := preloadLists(rd, c); err != nil {
			return out, err
		}
	}
	out.setupS = time.Since(t0).Seconds()
	out.xmlBytes = c.xmlBytes

	nCount := b.countReadsOf(w)
	fixed, rest := reqs[b.cfg.warmup:][:nCount], reqs[b.cfg.warmup+nCount:]
	mem0, err := srv.mem()
	if err != nil {
		return out, err
	}
	count := func() { out.counted = readLoop(rd, fixed, 10, toEnd) }
	if w.live {
		count()
	} else if err := out.timed.measure(srv, count); err != nil {
		return out, err
	}
	mem1, err := srv.mem()
	if err != nil {
		return out, err
	}
	out.mallocs, out.allocBytes = mem1.mallocs-mem0.mallocs, mem1.totalAlloc-mem0.totalAlloc

	err = out.timed.measure(srv, func() {
		if w.live {
			out.reads, out.writes = readBesideWrites(srv, rd, rest, batches, b.cfg.writeEvery)
			return
		}
		left := b.window() - time.Duration(out.timed.wallS*float64(time.Second))
		start := time.Now()
		more := readLoop(rd, rest, 10, func(int) bool { return time.Since(start) >= left })
		out.reads = out.counted
		out.reads.add(more)
	})
	if err != nil {
		return out, err
	}
	out.stallMs = readerStallMs(out.reads, out.writes)
	if out.rssMB, err = srv.peakRSSMB(); err != nil {
		return out, err
	}

	// Answer checks, outside the window.
	if w.live {
		srv.kill()
		stopped = true
		if derr := b.durabilityCheck(dep, uint64(len(batches)), sentinelTerm(b.cfg.seed, n)); derr != nil {
			// An acknowledged write that does not survive makes every
			// acknowledgement of the round worthless.
			out.writes.failed = len(batches)
			out.writes.firstErr = derr
		}
		verifyKept(&out.counted, ref, w.k)
	} else {
		verifyKept(&out.reads, ref, w.k)
		srv.stop()
		stopped = true
	}
	out.diskBytes, err = diskBytes(dep.root)
	return out, err
}

// runE2E measures workload w end to end, with tracing off.
func (b *bench) runE2E(w workload) (*workloadResult, error) {
	c, err := buildCorpus(b.scaleOf(w), false)
	if err != nil {
		return nil, err
	}
	// Each round reads its own stretch of the list: more distinct queries
	// per run means less sampling noise between seeds.
	nCount := b.countReadsOf(w)
	perRound := b.cfg.warmup + nCount + int(b.window().Seconds()*maxQPS) + 1
	reqs, err := genRequests(w, c, b.cfg.seed, perRound*b.cfg.rounds)
	if err != nil {
		return nil, err
	}
	ref := core.NewFromIndex(c.ix, nil)
	nBatches := int(b.window() / b.cfg.writeEvery)

	res := &workloadResult{Valid: true, Requests: perRound, CountReads: nCount, Corpus: c.info()}
	var rounds []roundOut
	for n := 0; n < b.cfg.rounds; n++ {
		var batches []*mutate.Batch
		if w.live {
			if batches, err = genUpdates(b.scaleOf(w), b.cfg.seed, n, nBatches, updateOps); err != nil {
				return nil, err
			}
		}
		out, err := b.round(w, n, reqs[n*perRound:(n+1)*perRound], batches, ref)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, n, err)
		}
		rounds = append(rounds, out)
	}
	res.EndToEnd = summarize(rounds, res)
	return res, nil
}

// summarize folds the rounds into the end-to-end metrics. A timing metric
// is the median of its per-round values, except latency percentiles, which
// pool the timed reads of all rounds so that the tail has enough samples
// beyond it; the per-round percentiles are kept beside them, since their
// spread is what tells -compare how much a difference can mean. A count
// metric pools the rounds' fixed-count reads.
func summarize(rounds []roundOut, res *workloadResult) metricSet {
	m := metricSet{}
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	var lat, ack, late []float64
	var counted, answered, mallocs, allocKB, respKB float64
	for i, r := range rounds {
		res.Attempted += len(r.reads.latMs) + len(r.writes.ackMs)
		failed, firstErr := r.reads.failed, r.reads.firstErr
		if len(r.writes.ackMs) > 0 { // the fixed-count reads were a pass of their own
			res.Attempted += len(r.counted.latMs)
			failed += r.counted.failed
			if firstErr == nil {
				firstErr = r.counted.firstErr
			}
		}
		if failed > 0 {
			res.fail(failed, "round %d: %d reads failed, first: %v", i, failed, firstErr)
		}
		if r.writes.failed > 0 {
			res.fail(r.writes.failed, "round %d: %d writes failed, first: %v", i, r.writes.failed, r.writes.firstErr)
		}

		reads := float64(len(r.reads.latMs))
		add("setup_s", r.setupS)
		add("qps", ratio(reads, r.timed.wallS))
		add("qps_per_core", ratio(reads, r.timed.serverCPUS))
		add("peak_rss_mb", r.rssMB)
		add("disk_bytes_per_doc_byte", ratio(float64(r.diskBytes), float64(r.xmlBytes)))
		add("bench.client_cpu_share", ratio(r.timed.clientCPUS, r.timed.wallS))

		lat = append(lat, r.reads.latMs...)
		asc := sorted(r.reads.latMs)
		add("p50_ms", percentile(asc, 0.50))
		add("p95_ms", percentile(asc, 0.95))
		add("p99_ms", percentile(asc, 0.99))
		if a := sorted(r.writes.ackMs); len(a) > 0 {
			ack = append(ack, a...)
			late = append(late, r.writes.lateMs...)
			add("update_p50_ms", percentile(a, 0.50))
			add("update_p95_ms", percentile(a, 0.95))
			add("core.epoch_swap_reader_stall_ms", r.stallMs)
		}

		n := float64(len(r.counted.latMs))
		ok := n - float64(r.counted.failed)
		kb := float64(r.counted.bytes) / 1024
		add("allocs_per_req", ratio(r.mallocs, n))
		add("alloc_kb_per_req", ratio(r.allocBytes/1024, n))
		add("resp_kb_per_req", ratio(kb, ok))
		counted, answered, mallocs, allocKB, respKB = counted+n, answered+ok, mallocs+r.mallocs, allocKB+r.allocBytes/1024, respKB+kb
	}
	m.put("setup_s", "s", per["setup_s"])
	m.put("qps", "req/s", per["qps"])
	m.put("qps_per_core", "req/cpu-s", per["qps_per_core"])
	m.put("peak_rss_mb", "MB", per["peak_rss_mb"])
	m.put("disk_bytes_per_doc_byte", "ratio", per["disk_bytes_per_doc_byte"])
	m.put("bench.client_cpu_share", "ratio", per["bench.client_cpu_share"])
	m.pooled("allocs_per_req", "count", ratio(mallocs, counted), int(counted), per["allocs_per_req"])
	m.pooled("alloc_kb_per_req", "KB", ratio(allocKB, counted), int(counted), per["alloc_kb_per_req"])
	m.pooled("resp_kb_per_req", "KB", ratio(respKB, answered), int(answered), per["resp_kb_per_req"])
	asc := sorted(lat)
	m.pooled("p50_ms", "ms", percentile(asc, 0.50), len(asc), per["p50_ms"])
	m.pooled("p95_ms", "ms", percentile(asc, 0.95), len(asc), per["p95_ms"])
	m.pooled("p99_ms", "ms", percentile(asc, 0.99), len(asc), per["p99_ms"])
	m.one("fail_ratio", "ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	if len(ack) > 0 {
		a, l := sorted(ack), sorted(late)
		m.pooled("update_p50_ms", "ms", percentile(a, 0.50), len(a), per["update_p50_ms"])
		m.pooled("update_p95_ms", "ms", percentile(a, 0.95), len(a), per["update_p95_ms"])
		m.pooled("bench.writer_late_p95_ms", "ms", percentile(l, 0.95), len(l), nil)
		m.put("core.epoch_swap_reader_stall_ms", "ms", per["core.epoch_swap_reader_stall_ms"])
	}
	res.checkLoadGenerator(m["bench.client_cpu_share"].Value, m["bench.writer_late_p95_ms"].Value)
	return m
}
