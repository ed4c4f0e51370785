package wire

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/experiments"
	"xrefine/internal/server"
)

var updateAnswers = flag.Bool("update", false, "rewrite testdata/answers.golden")

// goldenQueries is the request set of internal/refine's walk_counts.golden
// on the same corpus: the seed-909 Table-VIII workload plus four
// frequent-term queries.
func goldenQueries(t *testing.T, c *experiments.Corpus) []string {
	t.Helper()
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 909, Queries: 30})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]string, 0, len(batch)+4)
	for _, cs := range batch {
		qs = append(qs, strings.Join(cs.Corrupted, " "))
	}
	vocab := c.Index.Vocabulary()
	sort.SliceStable(vocab, func(a, b int) bool {
		return c.Index.ListLen(vocab[a]) > c.Index.ListLen(vocab[b])
	})
	f := vocab[:4]
	return append(qs, f[0]+" "+f[1], f[1]+" "+f[2], f[0]+" "+f[1]+" "+f[2], "databse "+f[2]+" "+f[3])
}

// TestAnswersGolden pins the bytes a client gets across commits: a fixed
// request set runs over HTTP and wire through one server.Pipeline on a
// document-backed monolith, both surfaces must give the same body, and
// testdata/answers.golden records each body's length and SHA-256. A
// change to the walk, the ranking, the snippets or the encoder that moves
// a single byte of an answer changes a line here; `go test -run
// TestAnswersGolden ./internal/wire -update` rewrites the file.
//
// Both codecs release each response once encoded, so every request after
// the first walks on the state the one before it released; the k=3
// queries then run again in reverse order, each on a state another query
// left, and must give the same bytes.
func TestAnswersGolden(t *testing.T) {
	c, err := experiments.DBLPCorpus(0.2)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	// check runs one request on both surfaces and records its line.
	check := func(h http.Handler, cl *Client, name, q string, k int) string {
		t.Helper()
		code, body := httpSearch(t, h, q, k)
		if code != http.StatusOK {
			t.Fatalf("%s: http %d %s", name, code, body)
		}
		if resp := wireSearch(t, cl, q, k); resp.Status != StatusOK || string(resp.Payload) != body {
			t.Errorf("%s: wire answer (status %d) diverges from the HTTP body", name, resp.Status)
		}
		fmt.Fprintf(&b, "%s len=%d sha256=%x\n", name, len(body), sha256.Sum256([]byte(body)))
		return body
	}
	serve := func(cfg *core.Config) (http.Handler, *Client) {
		srv := server.New(core.NewFromDocument(c.Doc, cfg), server.Config{TraceSampleEvery: -1})
		_, addr := serveWire(t, srv.Pipeline())
		return srv, dial(t, addr)
	}

	h, cl := serve(nil)
	queries := goldenQueries(t, c)
	bodies := map[string]string{}
	for _, k := range []int{1, 3, 10} {
		for _, q := range queries {
			bodies[fmt.Sprint(k, q)] = check(h, cl, fmt.Sprintf("k=%d q=%s", k, strings.ReplaceAll(q, " ", "+")), q, k)
		}
	}
	for i := len(queries) - 1; i >= 0; i-- {
		if _, body := httpSearch(t, h, queries[i], 3); body != bodies[fmt.Sprint(3, queries[i])] {
			t.Errorf("k=3 q=%s: answered in reverse order, the body differs", queries[i])
		}
	}
	if body := check(h, cl, "unmatchable k=3 q=qqzzx+wwyyv", "qqzzx wwyyv", 3); !strings.Contains(body, `"queries": null`) {
		t.Errorf("unmatchable query answered with queries: %s", body)
	}
	// The empty query is refused on both surfaces before it reaches the
	// backend; its line records the refusal.
	if code, body := httpSearch(t, h, "!!", 3); code != http.StatusBadRequest {
		t.Errorf("empty query: http %d %s, want 400", code, body)
	}
	if _, err := cl.nc.Write(AppendRequest(nil, 0, 0, 3, 0, nil)); err != nil {
		t.Fatal(err)
	}
	cl.inflight++
	if resp, err := cl.Recv(); err != nil || resp.Status != StatusError || resp.Code != CodeBadRequest {
		t.Errorf("empty query over wire: %+v, %v; want a 400 error frame", resp, err)
	}
	b.WriteString("empty k=3 code=400\n")

	h, cl = serve(&core.Config{PostingBudget: 1})
	if body := check(h, cl, "budget=1 k=3 q="+strings.ReplaceAll(queries[0], " ", "+"), queries[0], 3); !strings.Contains(body, `"degraded": true`) {
		t.Errorf("a one-posting budget did not degrade the answer: %s", body)
	}

	path := filepath.Join("testdata", "answers.golden")
	if *updateAnswers {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("answers drifted from the golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
