// Command xserve runs the XRefine HTTP query server over an XML document
// or a prebuilt index.
//
// Usage:
//
//	xserve -xml dblp.xml -addr :8080
//	xserve -index dblp.kv -addr :8080
//	xserve -index dblp.kv -timeout 2s -budget 5000000 -max-inflight 64
//	xserve -index dblp.kv -live
//	xserve -shards dblp-shards -addr :8080
//	xserve -shards dblp-shards -live
//	xserve -index dblp.kv -addr :8080 -wire :7070
//
// Endpoints:
//
//	GET /search?q=online+databse&k=3&explain=1
//	GET /narrow?q=database&max=50&k=3    (requires -xml)
//	GET /complete?q=datab&k=8            (search-as-you-type)
//	POST /update                          (requires -live or -xml; see README)
//	GET /healthz
//	GET /metrics                          (Prometheus text; ?format=openmetrics adds exemplars)
//	GET /debug/slowlog                    (requires -slowlog)
//	GET /debug/events                     (flight recorder; ?trace_id= &shard= &kind= &limit=)
//	GET /debug/trace/<trace-id>           (retained sampled and slow traces)
//	GET /debug/pprof/                     (requires -pprof)
//
// With -timeout or -budget set, a query that overruns returns the partial
// results found so far with "degraded": true instead of an error. With
// -max-inflight set, excess concurrent requests are shed with 503 and a
// Retry-After header. SIGINT/SIGTERM drain in-flight requests before exit.
//
// With -live set, the index is opened read-write and POST /update applies
// insert/delete batches as epoch commits, each durable in the store once
// acknowledged; without it an -index server serves a frozen snapshot and
// /update is rejected. An -xml server accepts updates too,
// but in memory only — they vanish on restart.
//
// With -slowlog set, every query is traced and those at or over the
// threshold are retained in the trace store marked slow; /debug/slowlog
// lists them. The store keeps the last 512 retained traces, sampled and
// slow alike. /healthz, /metrics, and the debug surfaces bypass the
// admission gate and the per-request timeout, so they answer even while
// the query path is saturated.
//
// With -shards set to a directory written by xgen -shards, the server
// hosts every shard store behind a scatter-gather router whose responses
// are byte-identical to a monolithic index over the unsplit corpus.
// /healthz reports per-shard epochs, /search?explain=1 shows per-shard
// fan-out spans, and with -live each POST /update batch is routed to the
// shard owning its target (batches spanning shards are rejected; split
// them per shard).
//
// A replicated directory (xgen -replicas R) serves each shard from an
// R-way replica set: scans pick the healthiest replica (EWMA latency +
// circuit breaker), -hedge-after races a second replica against a slow
// primary, failed attempts retry across the set, and -live writes route
// to every replica with epoch reconciliation quarantining and catching up
// any copy that misses a commit. /healthz gains a per-replica health
// table. -chaos arms seeded probabilistic store faults (error rate and/or
// latency jitter) on every replica — the mode the chaos cells of the
// conformance matrix run against.
//
//	xserve -shards dblp-shards -replicas 2 -hedge-after 20ms -live
//	xserve -shards dblp-shards -chaos rate=0.002,jitter=1ms-3ms
//
// With -wire set, the same backend additionally serves the length-
// prefixed binary protocol (persistent pipelined connections; see
// ARCHITECTURE.md §22) on that address. Query payloads are byte-identical
// to the HTTP /search bodies, -timeout applies to both and -max-inflight
// bounds the two together, and SIGINT/SIGTERM drain both surfaces.
// `xrefine search -wire host:port <query>` is the matching client.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xrefine"
	"xrefine/internal/core"
	"xrefine/internal/obs"
	"xrefine/internal/server"
	"xrefine/internal/shard"
	"xrefine/internal/wire"
)

func main() {
	var (
		xmlPath     = flag.String("xml", "", "XML document to index and serve")
		indexPath   = flag.String("index", "", "prebuilt index file to serve")
		addr        = flag.String("addr", ":8080", "listen address")
		wireAddr    = flag.String("wire", "", "also serve the binary wire protocol on this address, e.g. :7070 (same backend, same limits)")
		timeout     = flag.Duration("timeout", 0, "per-query deadline; overruns return partial results flagged degraded (0 = none)")
		budget      = flag.Int("budget", 0, "per-query posting budget; exhaustion degrades the response (0 = unlimited)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently-handled query requests; excess is shed with 503 (0 = unbounded)")
		drain       = flag.Duration("drain", 15*time.Second, "max time to drain in-flight requests on SIGINT/SIGTERM")
		slowlog     = flag.Duration("slowlog", 0, "slow-query threshold; queries at or over it are kept at /debug/slowlog (0 = off)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		live        = flag.Bool("live", false, "open -index read-write and accept POST /update (durable epoch commits)")
		shardDir    = flag.String("shards", "", "shard directory (xgen -shards) to serve scatter-gather")
		replicas    = flag.Int("replicas", 0, "replicas per shard to attach from the manifest (0 = all available)")
		hedgeAfter  = flag.Duration("hedge-after", 0, "hedge a slow shard scan onto the next replica after this delay (0 = off)")
		chaosSpec   = flag.String("chaos", "", "arm probabilistic store faults on every replica, e.g. rate=0.01,jitter=1ms-5ms,seed=7")
		traceSample = flag.Int("trace-sample", 0, "retain every n-th query's trace at /debug/trace/<id> with histogram exemplars (0 = every 64th, negative = off)")
		sloAvail    = flag.Float64("slo-availability", 0, "availability objective as a fraction, e.g. 0.999 (0 = default 0.999)")
		sloLatObj   = flag.Float64("slo-latency", 0, "latency objective as a fraction, e.g. 0.99 (0 = default 0.99)")
		sloTarget   = flag.Duration("slo-target", 0, "latency objective threshold (0 = default 250ms)")
	)
	flag.Parse()

	// -timeout is the pipeline's per-request deadline alone: the engine
	// and the router see it through the request context.
	cfg := &core.Config{PostingBudget: *budget}
	var backend server.Backend
	var eng *core.Engine
	switch {
	case *shardDir != "":
		opts := &shard.Options{
			Live:       *live,
			Config:     cfg,
			Replicas:   *replicas,
			HedgeAfter: *hedgeAfter,
		}
		if *chaosSpec != "" {
			c, err := shard.ParseChaos(*chaosSpec)
			if err != nil {
				log.Fatal(err)
			}
			opts.Chaos = c
			log.Printf("chaos armed: %s", *chaosSpec)
		}
		r, err := shard.Open(*shardDir, opts)
		if err != nil {
			log.Fatal(err)
		}
		defer r.Close()
		backend = r
		log.Printf("opened %d shard(s) x %d replica(s) from %s at epoch %d (live=%v hedge=%v)",
			r.Shards(), r.Replicas(), *shardDir, r.UpdateStats().Epoch, *live, *hedgeAfter)
	case *xmlPath != "":
		f, err := os.Open(*xmlPath)
		if err != nil {
			log.Fatal(err)
		}
		doc, err := xrefine.ParseXML(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		eng = core.NewFromDocument(doc, cfg)
		log.Printf("indexed %s: %d nodes", *xmlPath, doc.NodeCount)
	case *indexPath != "":
		store, err := xrefine.OpenStore(*indexPath, !*live)
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
		if *live {
			eng, err = xrefine.OpenLiveIndex(store, cfg)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("opened live index %s at epoch %d", *indexPath, eng.Epoch())
		} else {
			eng, err = core.Open(store, cfg)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("opened index %s (read-only)", *indexPath)
		}
	default:
		fmt.Fprintln(os.Stderr, "xserve: need -xml, -index, or -shards")
		os.Exit(2)
	}
	if backend == nil {
		backend = eng
	}

	h := server.New(backend, server.Config{
		Timeout:          *timeout,
		MaxInFlight:      *maxInflight,
		SlowLogThreshold: *slowlog,
		EnablePprof:      *pprofOn,
		TraceSampleEvery: *traceSample,
		SLO: obs.SLOOptions{
			AvailabilityObjective: *sloAvail,
			LatencyObjective:      *sloLatObj,
			LatencyTarget:         *sloTarget,
		},
	})
	// WriteTimeout leaves headroom over the query deadline so degraded
	// responses still get written rather than cut off mid-body.
	writeTimeout := 30 * time.Second
	if *timeout > 0 && *timeout+5*time.Second > writeTimeout {
		writeTimeout = *timeout + 5*time.Second
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("serving on %s", *addr)

	// The binary surface is a second codec over the same pipeline — one
	// admission gate, one deadline, one flight recorder — so the two
	// answer identically, are limited together and drain together.
	var wsrv *wire.Server
	wireErrCh := make(chan error, 1)
	if *wireAddr != "" {
		wsrv = wire.NewServer(h.Pipeline())
		wl, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			log.Fatal(err)
		}
		go func() { wireErrCh <- wsrv.Serve(wl) }()
		log.Printf("serving wire protocol on %s", *wireAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case err := <-wireErrCh:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("received %v: draining for up to %v", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		incomplete := false
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("http drain incomplete: %v", err)
			srv.Close()
			incomplete = true
		}
		if wsrv != nil {
			if err := wsrv.Shutdown(ctx); err != nil {
				log.Printf("wire drain incomplete: %v", err)
				incomplete = true
			}
		}
		if incomplete {
			os.Exit(1)
		}
		log.Printf("drained cleanly")
	}
	// ListenAndServe returns ErrServerClosed after Shutdown; anything else
	// would have been fatal above.
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if wsrv != nil {
		if err := <-wireErrCh; err != nil && !errors.Is(err, wire.ErrServerClosed) {
			log.Fatal(err)
		}
	}
}
