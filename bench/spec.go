package main

// corpusSeed fixes the document every workload runs on; -seed drives only
// the requests and the update batches, so two seeds differ in what is
// asked, never in what is stored.
const corpusSeed = 42

// fullAuthors is the author count of DBLP scale 1.0 (42 041 nodes, the
// size internal/experiments calls 100 %).
const fullAuthors = 2000

// workload is one deployment plus one traffic mix. The names are cited by
// later issues and by BENCHMARK.json; do not rename them.
type workload struct {
	name string
	// why is the reason the workload exists, copied into BENCHMARK.json.
	why string
	// scale sizes the DBLP corpus (1.0 = fullAuthors authors).
	scale float64
	// k is the top-K every read asks for.
	k int
	// http selects the reader's surface: HTTP /search, else the wire
	// protocol.
	http bool
	// shards > 0 deploys `xserve -shards` over shards x replicas stores.
	shards, replicas int
	// live deploys `xserve -live` and adds the open-loop writer.
	live bool
	// zipfPool > 0 draws requests Zipf(zipfS) from a pool of that many
	// distinct queries instead of issuing distinct queries.
	zipfPool int
	// countReads is the fixed number of reads that open each round's
	// measurement; the count metrics are taken over exactly these, so for a
	// seed they do not depend on how fast the machine is. It is two thirds
	// to nine tenths of what a round's time box holds at the first baseline,
	// depending on the sandbox's pace that minute.
	countReads int
}

// zipfS is the skew of the repeat_zipf draw: the three hottest of 64
// queries carry about 40 % of the requests.
const zipfS = 1.1

var workloads = []workload{
	{
		name:  "refine_mix",
		why:   "distinct Table-VIII queries on a monolith over wire, K=3: refine+slca+index do ~90% of the work and no request shares work with another, so a cache is bypassed",
		scale: 0.5, k: 3, countReads: 240,
	},
	{
		name:  "repeat_zipf",
		why:   "same deployment, requests drawn Zipf(1.1) from 64 queries: work is shared across requests, so result caches, singleflight and rule memos act here and nowhere else",
		scale: 0.5, k: 3, zipfPool: 64, countReads: 220,
	},
	{
		name:  "sharded_http",
		why:   "2 shards x 2 replicas behind HTTP /search, K=1, small corpus: fixed per-request cost (scatter-gather, merge, JSON, transport) is the largest share, the scan the smallest",
		scale: 0.2, k: 1, http: true, shards: 2, replicas: 2, countReads: 700,
	},
	{
		name:  "live_update",
		why:   "monolith with WAL: an open-loop writer commits a batch every 100 ms beside a closed-loop reader, then kill -9 and restart; epoch swaps, page writes and anything keyed by epoch show here",
		scale: 0.2, k: 3, live: true, countReads: 150,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec declares one end-to-end metric: its unit, which direction is
// better, and the share of the baseline median it may worsen by before
// -compare calls it a regression (0: any worsening counts).
type metricSpec struct {
	name, unit, better string
	bound              float64
	// driver marks the metrics BENCHMARK.json lists. The rest are printed
	// and compared by this tool only: they are zero, or absent, on some
	// workload, which BENCHMARK.json does not allow.
	driver bool
	// fixedList marks the metrics taken over each round's fixed-count
	// reads. Their per-round values differ because the rounds read
	// different requests, not because the machine is noisy, so -compare
	// never calls them unresolved.
	fixedList bool
}

// A driver run draws its requests from --seed, a different one every time,
// so the bound of a listed metric has to hold three times the quartile
// spread measured across seeds (README.md, Steadiness), not the spread of
// one seed repeated.
var e2eSpecs = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, driver: true},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25, driver: true},
	{name: "p95_ms", unit: "ms", better: "lower", bound: 0.25, driver: true},
	{name: "qps", unit: "req/s", better: "higher", bound: 0.25, driver: true},
	{name: "qps_per_core", unit: "req/cpu-s", better: "higher", bound: 0.25, driver: true},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10, driver: true},
	{name: "allocs_per_req", unit: "count", better: "lower", bound: 0.10, driver: true, fixedList: true},
	{name: "alloc_kb_per_req", unit: "KB", better: "lower", bound: 0.10, driver: true, fixedList: true},
	{name: "disk_bytes_per_doc_byte", unit: "ratio", better: "lower", bound: 0.03, driver: true},
	{name: "p99_ms", unit: "ms", better: "lower", bound: 0.25},
	// Returning less is the regression this guards against; the value
	// repeats exactly for a seed.
	{name: "resp_kb_per_req", unit: "KB", better: "higher", bound: 0, fixedList: true},
	{name: "update_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "update_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "fail_ratio", unit: "ratio", better: "lower", bound: 0},
}

// Validity limits: beyond them the load generator, not the server, shaped
// the numbers, and the run fails.
const (
	maxClientCPUShare = 0.25
	maxWriterLateMs   = 20.0
)
