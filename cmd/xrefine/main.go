// Command xrefine indexes an XML document and answers keyword queries with
// automatic refinement — the paper's prototype as a CLI.
//
// Usage:
//
//	xrefine index  -xml dblp.xml -index dblp.kv -with-doc
//	xrefine search -xml dblp.xml "online databse"
//	xrefine search -index dblp.kv -k 5 "efficient key word search"
//	xrefine search -shards dblp-shards "online databse"
//	xrefine search -wire localhost:7070 "online databse"
//	xrefine apply  -index dblp.kv -batch updates.txt
//	xrefine repl   -xml dblp.xml
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"xrefine"
	"xrefine/internal/obs"
	"xrefine/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "index":
		cmdIndex(os.Args[2:])
	case "search":
		cmdSearch(os.Args[2:])
	case "repl":
		cmdREPL(os.Args[2:])
	case "batch":
		cmdBatch(os.Args[2:])
	case "apply":
		cmdApply(os.Args[2:])
	case "explain":
		cmdExplain(os.Args[2:])
	case "narrow":
		cmdNarrow(os.Args[2:])
	case "slo":
		cmdSLO(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  xrefine index  -xml <file> -index <file> [-with-doc]   build a persistent index
  xrefine search [-xml <file> | -index <file> | -shards <dir> [-replicas N] [-hedge-after D]] [-k N] [-explain] <query>
  xrefine batch  [-xml <file> | -index <file>] [-k N] -queries <file>   one query per line, TSV out
  xrefine apply  -index <file> -batch <file>   apply an update batch as a new epoch
  xrefine explain [-xml <file> | -index <file>] <query>   full decision trace
  xrefine narrow [-xml <file>] [-max N] [-k N] <query>    too-many-results suggestions
  xrefine slo    -url <http://host:port>        burn-rate report from a running xserve
  xrefine repl   [-xml <file> | -index <file>]  interactive session`)
	os.Exit(2)
}

func cmdIndex(args []string) {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	xmlPath := fs.String("xml", "", "XML document to index")
	indexPath := fs.String("index", "", "output index file")
	withDoc := fs.Bool("with-doc", false, "also store the document (keeps snippets and narrowing)")
	fs.Parse(args)
	if *xmlPath == "" || *indexPath == "" {
		fatal(fmt.Errorf("index needs -xml and -index"))
	}
	f, err := os.Open(*xmlPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	eng, err := xrefine.NewFromXML(f, nil)
	if err != nil {
		fatal(err)
	}
	store, err := xrefine.OpenStore(*indexPath, false)
	if err != nil {
		fatal(err)
	}
	defer store.Close()
	if *withDoc {
		err = eng.SaveIndexWithDocument(store)
	} else {
		err = eng.SaveIndex(store)
	}
	if err != nil {
		fatal(err)
	}
	st := store.StorageStats()
	fmt.Printf("indexed %s -> %s (%s backend, %d keys, %d bytes)\n",
		*xmlPath, *indexPath, st.Kind, st.Keys, st.DiskBytes)
}

// queryBackend is the slice of the engine surface the answer path needs;
// *xrefine.Engine and *xrefine.ShardRouter both satisfy it.
type queryBackend interface {
	QueryTermsCtx(ctx context.Context, terms []string, strategy xrefine.Strategy, k, parallelism int) (*xrefine.Response, error)
	Snippet(m xrefine.Match, maxRunes int) (string, bool)
}

// load builds an engine from either -xml or -index.
func load(fs *flag.FlagSet) (*xrefine.Engine, *xrefine.Document, func()) {
	xmlPath := fs.Lookup("xml").Value.String()
	indexPath := fs.Lookup("index").Value.String()
	switch {
	case xmlPath != "":
		f, err := os.Open(xmlPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		doc, err := xrefine.ParseXML(f)
		if err != nil {
			fatal(err)
		}
		return xrefine.NewFromDocument(doc, nil), doc, func() {}
	case indexPath != "":
		store, err := xrefine.OpenStore(indexPath, true)
		if err != nil {
			fatal(err)
		}
		eng, err := xrefine.OpenIndex(store, nil)
		if err != nil {
			store.Close()
			fatal(err)
		}
		return eng, nil, func() { store.Close() }
	}
	fatal(fmt.Errorf("need -xml or -index"))
	return nil, nil, nil
}

// loadBackend is load plus -shards: a shard directory opens a
// scatter-gather router instead of a single engine. -replicas bounds how
// many replicas per shard attach and -hedge-after enables hedged reads.
func loadBackend(fs *flag.FlagSet) (queryBackend, *xrefine.Document, func()) {
	if f := fs.Lookup("shards"); f != nil && f.Value.String() != "" {
		opts := &xrefine.ShardOptions{}
		if rf := fs.Lookup("replicas"); rf != nil {
			if n, err := strconv.Atoi(rf.Value.String()); err == nil && n > 0 {
				opts.Replicas = n
			}
		}
		if hf := fs.Lookup("hedge-after"); hf != nil {
			if d, err := time.ParseDuration(hf.Value.String()); err == nil && d > 0 {
				opts.HedgeAfter = d
			}
		}
		r, err := xrefine.OpenShards(f.Value.String(), opts)
		if err != nil {
			fatal(err)
		}
		return r, nil, func() { r.Close() }
	}
	eng, doc, closeFn := load(fs)
	return eng, doc, closeFn
}

func cmdSearch(args []string) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	fs.String("xml", "", "XML document")
	fs.String("index", "", "index file")
	fs.String("shards", "", "shard directory (xgen -shards) to query scatter-gather")
	fs.Int("replicas", 0, "replicas per shard to attach from the manifest (0 = all)")
	fs.Duration("hedge-after", 0, "hedge a slow shard scan onto the next replica after this delay (0 = off)")
	k := fs.Int("k", 3, "number of refined queries")
	explainTrace := fs.Bool("explain", false, "print the query's stage trace (spans with durations) after the answer")
	wireAddr := fs.String("wire", "", "query a running xserve -wire server at this address and print the raw JSON payload")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fatal(fmt.Errorf("search needs a query"))
	}
	query := strings.Join(fs.Args(), " ")
	if *wireAddr != "" {
		wireSearch(*wireAddr, query, *k)
		return
	}
	eng, doc, closeFn := loadBackend(fs)
	defer closeFn()
	answer(os.Stdout, eng, doc, query, *k, *explainTrace)
}

// wireSearch answers one query over the binary protocol and prints the
// payload, which is byte-identical to the HTTP /search body for the same
// server state — the process cells of wire.TestConformance compare this
// path's output with the reference's.
func wireSearch(addr, query string, k int) {
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	terms := xrefine.Tokenize(query)
	if len(terms) == 0 {
		fatal(fmt.Errorf("empty query after tokenization"))
	}
	resp, err := c.Query(0, byte(xrefine.StrategyPartition), k, 0, terms)
	if err != nil {
		fatal(err)
	}
	switch resp.Status {
	case wire.StatusOK:
		os.Stdout.Write(resp.Payload)
	case wire.StatusRetry:
		fatal(fmt.Errorf("server at capacity, retry after %ds: %s", resp.RetryAfter, resp.Payload))
	default:
		fatal(fmt.Errorf("wire error %d: %s", resp.Code, resp.Payload))
	}
}

func cmdBatch(args []string) {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	fs.String("xml", "", "XML document")
	fs.String("index", "", "index file")
	k := fs.Int("k", 3, "number of refined queries")
	queriesPath := fs.String("queries", "", "file with one keyword query per line")
	fs.Parse(args)
	if *queriesPath == "" {
		fatal(fmt.Errorf("batch needs -queries"))
	}
	eng, _, closeFn := load(fs)
	defer closeFn()
	qf, err := os.Open(*queriesPath)
	if err != nil {
		fatal(err)
	}
	defer qf.Close()
	if err := runBatch(os.Stdout, eng, qf, *k); err != nil {
		fatal(err)
	}
}

// runBatch answers one query per input line, emitting TSV:
// query, need_refine, best keywords, dSim, result count.
func runBatch(w io.Writer, eng *xrefine.Engine, queries io.Reader, k int) error {
	sc := bufio.NewScanner(queries)
	for sc.Scan() {
		q := strings.TrimSpace(sc.Text())
		if q == "" || strings.HasPrefix(q, "#") {
			continue
		}
		terms := tokenizeArg(q)
		if len(terms) == 0 {
			fmt.Fprintf(w, "%s\terror\tempty query\t\t\n", q)
			continue
		}
		resp, err := eng.QueryTermsCtx(context.Background(), terms, xrefine.StrategyPartition, k, 0)
		if err != nil {
			fmt.Fprintf(w, "%s\terror\t%s\t\t\n", q, err)
			continue
		}
		if len(resp.Queries) == 0 {
			fmt.Fprintf(w, "%s\t%v\t\t\t0\n", q, resp.NeedRefine)
			continue
		}
		best := resp.Queries[0]
		fmt.Fprintf(w, "%s\t%v\t%s\t%.1f\t%d\n",
			q, resp.NeedRefine, strings.Join(best.Keywords, " "), best.DSim, len(best.Results))
	}
	return sc.Err()
}

func cmdApply(args []string) {
	fs := flag.NewFlagSet("apply", flag.ExitOnError)
	indexPath := fs.String("index", "", "index file (built with index -with-doc)")
	batchPath := fs.String("batch", "", "update batch file, one op per line (see xgen -updates)")
	fs.Parse(args)
	if *indexPath == "" || *batchPath == "" {
		fatal(fmt.Errorf("apply needs -index and -batch"))
	}
	if err := applyBatch(os.Stdout, *indexPath, *batchPath); err != nil {
		fatal(err)
	}
}

// applyBatch commits one batch file against a live index as a new epoch.
func applyBatch(w io.Writer, indexPath, batchPath string) error {
	bf, err := os.Open(batchPath)
	if err != nil {
		return err
	}
	batch, err := xrefine.ReadUpdateBatch(bf)
	bf.Close()
	if err != nil {
		return err
	}
	store, err := xrefine.OpenStore(indexPath, false)
	if err != nil {
		return err
	}
	defer store.Close()
	eng, err := xrefine.OpenLiveIndex(store, nil)
	if err != nil {
		return err
	}
	res, err := eng.Apply(batch)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "epoch %d: %d insert op(s), %d delete op(s); %d node(s) added, %d removed\n",
		res.Epoch, res.InsertOps, res.DeleteOps, res.Inserted, res.Deleted)
	return nil
}

func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	fs.String("xml", "", "XML document")
	fs.String("index", "", "index file")
	k := fs.Int("k", 4, "number of refined queries")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fatal(fmt.Errorf("explain needs a query"))
	}
	eng, _, closeFn := load(fs)
	defer closeFn()
	if err := explain(os.Stdout, eng, strings.Join(fs.Args(), " "), *k); err != nil {
		fatal(err)
	}
}

// explain prints the full decision trace: normalized terms, generated
// rules, search-for candidates with confidences, and the ranked refined
// queries with provenance and scores.
func explain(w io.Writer, eng *xrefine.Engine, query string, k int) error {
	terms := tokenizeArg(query)
	resp, err := eng.QueryTermsCtx(context.Background(), terms, xrefine.StrategyPartition, k, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "query terms: %v\n", resp.Terms)
	fmt.Fprintf(w, "needs refinement: %v\n", resp.NeedRefine)
	fmt.Fprintf(w, "\nrules derived for this query (%d):\n", len(resp.Rules))
	for _, r := range resp.Rules {
		fmt.Fprintf(w, "  [%s] %s\n", r.Origin, r)
	}
	fmt.Fprintf(w, "\nsearch-for candidates (Formula 1):\n")
	for _, c := range resp.SearchFor {
		fmt.Fprintf(w, "  %-40s confidence %.4f\n", c.Type.Path(), c.Confidence)
	}
	fmt.Fprintf(w, "\nranked queries:\n")
	for i, rq := range resp.Queries {
		label := "refined"
		if rq.IsOriginal {
			label = "original"
		}
		fmt.Fprintf(w, "  %d. [%s] {%s}  dSim=%.1f rank=%.4f (sim %.4f + dep %.4f) results=%d\n",
			i+1, label, strings.Join(rq.Keywords, ", "), rq.DSim, rq.Score, rq.SimScore, rq.DepScore, len(rq.Results))
		for _, st := range rq.Steps {
			fmt.Fprintf(w, "       via %s\n", st)
		}
	}
	return nil
}

func cmdNarrow(args []string) {
	fs := flag.NewFlagSet("narrow", flag.ExitOnError)
	fs.String("xml", "", "XML document")
	fs.String("index", "", "index file (must carry the document; see index -with-doc)")
	max := fs.Int("max", 50, "result count above which a query is too broad")
	k := fs.Int("k", 3, "number of suggestions")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fatal(fmt.Errorf("narrow needs a query"))
	}
	eng, _, closeFn := load(fs)
	defer closeFn()
	if err := narrowQuery(os.Stdout, eng, strings.Join(fs.Args(), " "), *max, *k); err != nil {
		fatal(err)
	}
}

func narrowQuery(w io.Writer, eng *xrefine.Engine, query string, max, k int) error {
	out, err := eng.Narrow(context.Background(), query, &xrefine.NarrowOptions{MaxResults: max, TopK: k})
	if err != nil {
		return err
	}
	if !out.TooBroad {
		fmt.Fprintf(w, "%d result(s) — specific enough (threshold %d)\n", out.OriginalResults, max)
		return nil
	}
	fmt.Fprintf(w, "%d results — too broad; try instead:\n", out.OriginalResults)
	if len(out.Suggestions) == 0 {
		fmt.Fprintln(w, "  (no narrowing suggestion found)")
		return nil
	}
	for i, s := range out.Suggestions {
		fmt.Fprintf(w, "%d. {%s}  (%d results, +%s)\n",
			i+1, strings.Join(s.Keywords, " "), len(s.Results), strings.Join(s.Added, "+"))
	}
	return nil
}

func cmdREPL(args []string) {
	fs := flag.NewFlagSet("repl", flag.ExitOnError)
	fs.String("xml", "", "XML document")
	fs.String("index", "", "index file")
	fs.String("shards", "", "shard directory (xgen -shards) to query scatter-gather")
	fs.Int("replicas", 0, "replicas per shard to attach from the manifest (0 = all)")
	fs.Duration("hedge-after", 0, "hedge a slow shard scan onto the next replica after this delay (0 = off)")
	k := fs.Int("k", 3, "number of refined queries")
	fs.Parse(args)
	eng, doc, closeFn := loadBackend(fs)
	defer closeFn()
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("xrefine> ")
	for sc.Scan() {
		q := strings.TrimSpace(sc.Text())
		if q == "" || q == "quit" || q == "exit" {
			break
		}
		answer(os.Stdout, eng, doc, q, *k, false)
		fmt.Print("xrefine> ")
	}
}

func answer(w io.Writer, eng queryBackend, doc *xrefine.Document, query string, k int, explainTrace bool) {
	ctx := context.Background()
	var root *xrefine.Span
	if explainTrace {
		ctx, root = xrefine.NewTrace(ctx, "query")
	}
	tsp := root.StartChild("tokenize")
	terms := tokenizeArg(query)
	tsp.End()
	resp, err := eng.QueryTermsCtx(ctx, terms, xrefine.StrategyPartition, k, 0)
	if err != nil {
		fmt.Fprintln(w, "error:", err)
		return
	}
	if root != nil {
		defer func() {
			root.End()
			fmt.Fprintln(w, "\ntrace:")
			xrefine.WriteTrace(w, root.Data())
			root.Release()
		}()
	}
	if len(resp.SearchFor) > 0 {
		var names []string
		for _, c := range resp.SearchFor {
			names = append(names, c.Type.Tag)
		}
		fmt.Fprintf(w, "search-for: %s\n", strings.Join(names, ", "))
	}
	if !resp.NeedRefine {
		fmt.Fprintf(w, "query %v matches directly (%d results)\n", resp.Terms, len(resp.Queries[0].Results))
		printResults(w, eng, doc, resp.Queries[0].Results)
		return
	}
	fmt.Fprintf(w, "query %v has no meaningful result; refinements:\n", resp.Terms)
	if len(resp.Queries) == 0 {
		fmt.Fprintln(w, "  (none found)")
		return
	}
	for i, rq := range resp.Queries {
		fmt.Fprintf(w, "%d. {%s}  dSim=%.1f rank=%.3f  (%d results)\n",
			i+1, strings.Join(rq.Keywords, ", "), rq.DSim, rq.Score, len(rq.Results))
		for _, st := range rq.Steps {
			fmt.Fprintf(w, "     via: %s\n", st)
		}
		printResults(w, eng, doc, rq.Results)
	}
}

func printResults(w io.Writer, eng queryBackend, doc *xrefine.Document, results []xrefine.Match) {
	const maxShow = 5
	for i, m := range results {
		if i == maxShow {
			fmt.Fprintf(w, "     ... %d more\n", len(results)-maxShow)
			break
		}
		// The backend renders against its own stored document (a shard
		// router asks the owning shard); engines without one fall back to
		// the bare label via the package helper.
		if s, ok := eng.Snippet(m, 80); ok {
			fmt.Fprintf(w, "     %s\n", s)
		} else {
			fmt.Fprintf(w, "     %s\n", xrefine.Snippet(doc, m, 80))
		}
	}
}

// tokenizeArg normalizes the shell-provided query string with the same
// tokenizer the engine uses.
func tokenizeArg(q string) []string { return xrefine.Tokenize(q) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xrefine:", err)
	os.Exit(1)
}

// cmdSLO fetches a running server's /healthz and renders the SLO burn-rate
// report under its "slo" key.
func cmdSLO(args []string) {
	fs := flag.NewFlagSet("slo", flag.ExitOnError)
	url := fs.String("url", "http://localhost:8080", "base URL of a running xserve")
	timeout := fs.Duration("timeout", 10*time.Second, "HTTP timeout")
	fs.Parse(args)
	if err := sloReport(os.Stdout, *url, *timeout); err != nil {
		fatal(err)
	}
}

func sloReport(w io.Writer, base string, timeout time.Duration) error {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(strings.TrimRight(base, "/") + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /healthz: %s", resp.Status)
	}
	var body struct {
		SLO *obs.SLOReport `json:"slo"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("decode /healthz: %w", err)
	}
	if body.SLO == nil {
		return fmt.Errorf("server reports no SLO data (older build?)")
	}
	obs.WriteSLOReport(w, *body.SLO)
	return nil
}
