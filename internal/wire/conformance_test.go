package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/mutate"
	"xrefine/internal/server"
	"xrefine/internal/shard"
	"xrefine/internal/tokenize"
	"xrefine/internal/xmltree"
)

// The conformance matrix. By Theorems 1–2 and Lemma 3 an answer is a
// function of the document and the query alone, so every deployment —
// codec × topology × server config × state — must answer one script with
// the bytes one reference answers it with: an in-process HTTP monolith
// over the same document, rebuilt from the final document once the update
// script has run. The reference itself is held to the brute-force oracle
// by TestOracleConformance and pinned across commits by answers.golden.

// script is the query half of the one script every cell runs: clean
// queries, misspellings that force refinement, and vocabulary the update
// script inserts.
var script = []string{
	"database query",
	"databse quary",
	"keyword serch xml",
	"twig matching pattern",
	"refinement suggestion",
	"keyword databse onlin",
}

// scriptKs are the k values of the script; -1 omits k on HTTP and sends 0,
// the wire codec's default, on wire.
var scriptKs = []int{-1, 0, 1, 3, 10}

// stepQueries are checked, at k=3, after every batch of the update script.
var stepQueries = script[:2]

var codecs = []string{"http", "wire"}

// topology is one way of laying the corpus out behind a backend.
type topology struct {
	name     string
	shards   int // 0: a monolithic engine
	mode     string
	replicas int
	hedge    time.Duration
	chaos    string // shard.ParseChaos spec; a body may then say it is degraded
}

var topologies = []topology{
	{name: "monolith"},
	{name: "range2", shards: 2, mode: shard.ModeRange},
	{name: "range4", shards: 4, mode: shard.ModeRange},
	{name: "hash3", shards: 3, mode: shard.ModeHash},
	{name: "repl2x2", shards: 2, mode: shard.ModeRange, replicas: 2, hedge: 50 * time.Microsecond},
	{name: "chaos2x2", shards: 2, mode: shard.ModeRange, replicas: 2, hedge: 2 * time.Millisecond, chaos: "rate=0.15,seed=7"},
}

// moreLayouts are the shard and replica counts the topologies above leave
// out, run cold on the plain config: the degenerate and the widest splits
// in both modes, and replica sets of three, hedged and not.
var moreLayouts = []topology{
	{name: "range1", shards: 1, mode: shard.ModeRange},
	{name: "range8", shards: 8, mode: shard.ModeRange},
	{name: "hash1", shards: 1, mode: shard.ModeHash},
	{name: "hash2", shards: 2, mode: shard.ModeHash},
	{name: "hash4", shards: 4, mode: shard.ModeHash},
	{name: "hash8", shards: 8, mode: shard.ModeHash},
	{name: "repl3x2", shards: 3, mode: shard.ModeRange, replicas: 2},
	{name: "repl2x3", shards: 2, mode: shard.ModeRange, replicas: 3},
	{name: "repl2x3-hedged", shards: 2, mode: shard.ModeRange, replicas: 3, hedge: 50 * time.Microsecond},
}

// serverConfig is one setting of the edges around the engine: none, limits
// too generous to fire beside an engine TopK that k=0 must not read, and a
// trace armed on every query.
type serverConfig struct {
	name   string
	engine core.Config
	server server.Config
}

var serverConfigs = []serverConfig{
	{name: "plain"},
	{name: "hardened", engine: core.Config{PostingBudget: 1 << 40, TopK: 5}, server: server.Config{Timeout: time.Hour, MaxInFlight: 128}},
	{name: "traced", server: server.Config{SlowLogThreshold: time.Nanosecond}},
}

// matrix holds what the cells share: the document, the update script, the
// references and one written shard layout per topology.
type matrix struct {
	doc     *xmltree.Document
	batches []*mutate.Batch // the update script, ending in the sentinel
	ops     []mutate.Op     // the same ops, one by one
	cold    *reference
	updated *reference
	steps   [][]string        // the reference's bodies of stepQueries after each batch
	root    string            // where the layouts are written
	layouts map[string]string // topology key -> shard directory
}

func TestConformance(t *testing.T) {
	doc, err := datagen.DBLPDocument(confCorpus)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := datagen.Updates(doc, datagen.UpdatesConfig{Batches: 6, Ops: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m := &matrix{doc: doc, root: t.TempDir(), layouts: map[string]string{}}
	m.batches = append(batches, &mutate.Batch{Ops: []mutate.Op{
		{Kind: mutate.OpInsert, Parent: []uint32{0}, XML: "<author><name>" + sentinel + "</name></author>"}}})
	m.cold = newReference(doc, nil)
	final := core.NewFromDocument(doc, nil)
	for _, b := range m.batches {
		m.ops = append(m.ops, b.Ops...)
		if _, err := final.Apply(b); err != nil {
			t.Fatal(err)
		}
		step := newReference(final.Document(), nil)
		m.steps = append(m.steps, []string{step.body(t, stepQueries[0], 3), step.body(t, stepQueries[1], 3)})
	}
	m.updated = newReference(final.Document(), nil)

	for _, top := range topologies {
		for _, cfg := range serverConfigs {
			t.Run(top.name+"/"+cfg.name+"/cold", func(t *testing.T) {
				d := m.deploy(t, top, cfg, false)
				m.runScript(t, d, m.cold, top.chaos != "")
				checkRejects(t, d)
			})
			t.Run(top.name+"/"+cfg.name+"/updated", func(t *testing.T) {
				d := m.deploy(t, top, cfg, true)
				m.runScript(t, d, m.updated, top.chaos != "")
				checkRejects(t, d)
			})
		}
	}
	for _, top := range moreLayouts {
		t.Run(top.name+"/plain/cold", func(t *testing.T) {
			m.runScript(t, m.deploy(t, top, serverConfigs[0], false), m.cold, false)
		})
	}
	// A monolith and a range split charge postings in document order alike,
	// so their budgeted bodies are the budgeted reference's; a hash split
	// charges in another order and is held to determinism only.
	for _, budget := range []int{1, 50, 400} {
		cfg := serverConfig{engine: core.Config{PostingBudget: budget}}
		ref := newReference(doc, &cfg.engine)
		for _, top := range topologies[:4] {
			t.Run(fmt.Sprintf("budget%d/%s", budget, top.name), func(t *testing.T) {
				d := m.deploy(t, top, cfg, false)
				if top.mode == shard.ModeHash {
					m.runScript(t, d, &reference{h: d.h, memo: map[string]string{}}, false)
					return
				}
				m.runScript(t, d, ref, false)
				if !strings.Contains(fmt.Sprint(ref.memo), `"degraded_reason": "posting-budget"`) {
					t.Errorf("budget %d never degraded a body; the cell shows nothing", budget)
				}
			})
		}
	}
	t.Run("process", func(t *testing.T) {
		if testing.Short() {
			t.Skip("process cells boot xserve; skipped under -short")
		}
		processCells(t, m)
	})
}

var confCorpus = datagen.DBLPConfig{Authors: 80, Seed: 3}

// sentinel is a term only the update script's last batch inserts.
const sentinel = "soaksentinel"

// reference is the monolith every cell is compared with, its bodies
// memoized by (query, k).
type reference struct {
	h    http.Handler
	memo map[string]string
}

func newReference(doc *xmltree.Document, cfg *core.Config) *reference {
	return &reference{h: server.New(core.NewFromDocument(doc, cfg), server.Config{}), memo: map[string]string{}}
}

func (r *reference) body(t *testing.T, q string, k int) string {
	t.Helper()
	key := fmt.Sprint(q, "|", k)
	if b, ok := r.memo[key]; ok {
		return b
	}
	code, b := httpSearch(t, r.h, q, k)
	if code != http.StatusOK {
		t.Fatalf("reference %q k=%d: %d %s", q, k, code, b)
	}
	r.memo[key] = b
	return b
}

// deployment is one backend behind one pipeline, served on both codecs
// the way xserve serves them.
type deployment struct {
	h http.Handler
	c *Client
}

func serve(t *testing.T, b server.Backend, cfg server.Config) *deployment {
	t.Helper()
	h := server.New(b, cfg)
	_, addr := serveWire(t, h.Pipeline())
	return &deployment{h: h, c: dial(t, addr)}
}

// search answers one script line on one codec; a non-OK answer fails the
// cell.
func (d *deployment) search(t *testing.T, codec, q string, k int) string {
	t.Helper()
	if codec == "http" {
		code, body := httpSearch(t, d.h, q, k)
		if code != http.StatusOK {
			t.Fatalf("http %q k=%d: %d %s", q, k, code, body)
		}
		return body
	}
	resp := wireSearch(t, d.c, q, max(k, 0))
	if resp.Status != StatusOK {
		t.Fatalf("wire %q k=%d: status %d: %s", q, k, resp.Status, resp.Payload)
	}
	return string(resp.Payload)
}

// httpSearch fetches a /search body; k < 0 omits the parameter.
func httpSearch(t *testing.T, h http.Handler, q string, k int) (int, string) {
	t.Helper()
	v := url.Values{"q": {q}}
	if k >= 0 {
		v.Set("k", fmt.Sprint(k))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?"+v.Encode(), nil))
	return rec.Code, rec.Body.String()
}

// wireSearch sends a query over the binary surface; the payload lives in
// the client's buffer until its next call.
func wireSearch(t *testing.T, c *Client, q string, k int) *Response {
	t.Helper()
	resp, err := c.Query(0, byte(core.StrategyPartition), k, 0, tokenize.Query(q))
	if err != nil {
		t.Fatalf("wire query %q: %v", q, err)
	}
	return resp
}

// deploy builds the cell's backend. An updated cell receives the update
// script through its own POST /update — a monolith batch by batch, a
// router op by op, as it commits per shard and an op may target a node an
// earlier op created — and is checked to stand at the script's epoch. The
// chaos topology is updated live without chaos, then restarted over its
// directory with chaos armed, so its epoch check is also the
// reopen-at-the-committed-epoch check.
func (m *matrix) deploy(t *testing.T, top topology, cfg serverConfig, updated bool) *deployment {
	t.Helper()
	if top.shards == 0 {
		d := serve(t, core.NewFromDocument(m.doc, &cfg.engine), cfg.server)
		if updated {
			m.update(t, d, 0, false)
		}
		return d
	}
	dir := m.layout(t, top, updated)
	if !updated {
		return serve(t, m.open(t, dir, top, cfg.engine, false), cfg.server)
	}
	if top.chaos == "" {
		d := serve(t, m.open(t, dir, top, cfg.engine, true), cfg.server)
		m.update(t, d, top.shards, true)
		return d
	}
	quiet := top
	quiet.chaos = ""
	r := m.open(t, dir, quiet, cfg.engine, true)
	m.update(t, serve(t, r, server.Config{}), top.shards, true)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	d := serve(t, m.open(t, dir, top, cfg.engine, false), cfg.server)
	checkEpoch(t, d.h, uint64(len(m.ops)), top.shards, false)
	return d
}

// layout writes the topology's shard directory: once for the read-only
// cells, which share it, and afresh for each live cell.
func (m *matrix) layout(t *testing.T, top topology, live bool) string {
	t.Helper()
	key := fmt.Sprint(top.shards, top.mode, top.replicas)
	dir, ok := m.layouts[key]
	if ok && !live {
		return dir
	}
	if dir = t.TempDir(); !live {
		dir = filepath.Join(m.root, fmt.Sprint(len(m.layouts)))
		m.layouts[key] = dir
	}
	if _, err := shard.WriteReplicatedStores(m.doc, dir, top.shards, top.mode, max(top.replicas, 1)); err != nil {
		t.Fatal(err)
	}
	return dir
}

func (m *matrix) open(t *testing.T, dir string, top topology, cfg core.Config, live bool) *shard.Router {
	t.Helper()
	opts := &shard.Options{Live: live, Config: &cfg, HedgeAfter: top.hedge}
	if top.chaos != "" {
		c, err := shard.ParseChaos(top.chaos)
		if err != nil {
			t.Fatal(err)
		}
		opts.Chaos, opts.Retries = c, 2
	}
	r, err := shard.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// update posts the update script — to a router one op per batch — checks
// stepQueries against the rebuilt reference after every batch, and checks
// the epoch; live says whether the backend is a store opened for updates.
func (m *matrix) update(t *testing.T, d *deployment, shards int, live bool) {
	t.Helper()
	commits := 0
	for i, b := range m.batches {
		parts := []*mutate.Batch{b}
		if shards > 0 {
			parts = parts[:0]
			for _, op := range b.Ops {
				parts = append(parts, &mutate.Batch{Ops: []mutate.Op{op}})
			}
		}
		for _, part := range parts {
			body, err := json.Marshal(part)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			d.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("batch %d: /update = %d %s", i, rec.Code, rec.Body.String())
			}
			commits++
		}
		for j, q := range stepQueries {
			if got := d.search(t, "http", q, 3); got != m.steps[i][j] {
				t.Fatalf("after batch %d: %q diverges from the rebuilt reference\n got: %s\nwant: %s", i, q, got, m.steps[i][j])
			}
		}
	}
	checkEpoch(t, d.h, uint64(commits), shards, live)
}

// checkEpoch requires /healthz to stand at epoch want, with live updates
// on or off, and, on a router, the per-shard epochs to add up to it.
func checkEpoch(t *testing.T, h http.Handler, want uint64, shards int, live bool) {
	t.Helper()
	var health struct {
		Epoch       uint64   `json:"epoch"`
		Live        bool     `json:"live_updates"`
		Shards      int      `json:"shards"`
		ShardEpochs []uint64 `json:"shard_epochs"`
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, e := range health.ShardEpochs {
		sum += e
	}
	if health.Epoch != want || health.Live != live || health.Shards != shards || (shards > 0 && sum != want) {
		t.Errorf("healthz epoch %d, live %v, shards %d, shard epochs %v; want epoch %d, live %v, over %d shards",
			health.Epoch, health.Live, health.Shards, health.ShardEpochs, want, live, shards)
	}
}

// runScript sends the script on both codecs and compares every body with
// the reference byte for byte. Under chaos a body may instead say it is
// degraded, but at least one body per codec must be compared.
func (m *matrix) runScript(t *testing.T, d *deployment, ref *reference, chaos bool) {
	t.Helper()
	for _, codec := range codecs {
		compared := 0
		for _, q := range script {
			for _, k := range scriptKs {
				got, want := d.search(t, codec, q, k), ref.body(t, q, k)
				switch {
				case got == want:
					compared++
				case chaos && strings.Contains(got, `"degraded": true`) && strings.Contains(got, `"degraded_reason": "`):
				default:
					t.Errorf("%s %q k=%d: body diverges from the reference\n got: %s\nwant: %s", codec, q, k, got, want)
				}
			}
		}
		if compared == 0 {
			t.Errorf("%s: every body degraded; the cell compared nothing", codec)
		}
	}
}

// checkRejects sends what both codecs must refuse with 400 — an empty
// query and any strategy but partition — and then requires both
// connections to still answer.
func checkRejects(t *testing.T, d *deployment) {
	t.Helper()
	for _, path := range []string{"/search", "/search?q=database&strategy=sle", "/search?q=database&strategy=stack", "/search?q=database&strategy=bogus"} {
		rec := httptest.NewRecorder()
		d.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("http %s = %d, want 400", path, rec.Code)
		}
	}
	for _, strat := range []byte{0, 1, 2, 9} {
		var terms []string // strategy 0 with no terms: the empty query
		if strat != 0 {
			terms = []string{"database"}
		}
		d.c.Send(0, strat, 3, 0, terms)
		if err := d.c.Flush(); err != nil {
			t.Fatal(err)
		}
		resp, err := d.c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusError || resp.Code != CodeBadRequest {
			t.Errorf("wire strategy %d terms %v: status %d code %d, want error 400", strat, terms, resp.Status, resp.Code)
		}
	}
	if code, body := httpSearch(t, d.h, "database", 3); code != http.StatusOK {
		t.Errorf("http unusable after rejects: %d %s", code, body)
	}
	if err := d.c.Ping(); err != nil {
		t.Errorf("wire unusable after rejects: %v", err)
	}
}

// raceEnabled reports whether this test binary has the race detector; the
// process cells then race-build xserve too.
var raceEnabled bool

// processCells boots real xserve processes where the platform can tie a
// child's life to the test's (conformance_proc_test.go).
var processCells = func(t *testing.T, m *matrix) { t.Skip("no process cells on this platform") }
