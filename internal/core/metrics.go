package core

import (
	"xrefine/internal/index"
	"xrefine/internal/kvstore"
	"xrefine/internal/obs"
	"xrefine/internal/storage"
)

// This file owns the engine's metric catalog. Every handle is registered
// idempotently on the engine's registry at construction, so several
// engines (or an engine plus the HTTP server) can share one registry
// without coordinating construction order. With metrics disabled
// (Config.DisableMetrics) every handle is nil and each instrumentation
// point collapses to a nil check — the overhead guard in
// internal/core/obs_test.go holds the instrumented path to within two
// allocations of the disabled one.

// engineMetrics holds the engine's registered metric handles.
type engineMetrics struct {
	queries      *obs.Counter
	refined      *obs.Counter
	parallel     *obs.Counter
	workerRuns   *obs.Counter
	degraded     *obs.CounterVec // label: reason
	querySeconds *obs.Histogram

	refinePartitions *obs.Counter
	rqGenerated      *obs.Counter
	dpRuns           *obs.Counter
	rqPruned         *obs.Counter
	boundUpdates     *obs.Counter

	slcaCalls    *obs.Counter
	slcaPostings *obs.Counter

	// Live-update instrumentation (internal/mutate surfaced through the
	// engine's Apply).
	appliedBatches *obs.Counter
	appliedOps     *obs.CounterVec // label: kind (insert|delete)
	pinnedQueries  *obs.Gauge
}

func newEngineMetrics(r *obs.Registry) engineMetrics {
	return engineMetrics{
		queries: r.Counter("xrefine_engine_queries_total",
			"Keyword queries answered."),
		refined: r.Counter("xrefine_engine_refined_total",
			"Responses that needed refinement (Definition 3.4)."),
		parallel: r.Counter("xrefine_engine_parallel_queries_total",
			"Queries whose partition walk ran on more than one worker."),
		workerRuns: r.Counter("xrefine_engine_worker_runs_total",
			"Worker goroutines launched across parallel queries."),
		degraded: r.CounterVec("xrefine_engine_degraded_total",
			"Partial responses by budget-degradation reason.", "reason"),
		querySeconds: r.Histogram("xrefine_engine_query_seconds",
			"End-to-end query latency in seconds.", obs.DefBuckets),
		refinePartitions: r.Counter("xrefine_refine_partitions_total",
			"Document partitions visited by the refinement algorithms."),
		rqGenerated: r.Counter("xrefine_refine_rq_candidates_total",
			"Refined-query candidates generated by the dynamic program."),
		dpRuns: r.Counter("xrefine_refine_dp_runs_total",
			"Runs of the top-2K dynamic program (one per distinct keyword mask per walk)."),
		rqPruned: r.Counter("xrefine_refine_rq_pruned_total",
			"Candidates whose SLCA computation the top-2K bound skipped."),
		boundUpdates: r.Counter("xrefine_refine_bound_updates_total",
			"Tightenings of the shared pruning bound on the parallel walk."),
		slcaCalls: r.Counter("xrefine_slca_calls_total",
			"Delegated SLCA computations."),
		slcaPostings: r.Counter("xrefine_slca_postings_total",
			"Posting mass consumed by SLCA computations."),
		appliedBatches: r.Counter("xrefine_mutate_applied_batches_total",
			"Update batches committed as new epochs."),
		appliedOps: r.CounterVec("xrefine_mutate_applied_ops_total",
			"Update operations committed, by kind.", "kind"),
		pinnedQueries: r.Gauge("xrefine_mutate_pinned_queries",
			"Queries currently executing against a pinned epoch snapshot."),
	}
}

// registerEpochMetrics bridges the index's own atomic op counters into the
// registry as function-backed metrics, reading through the engine's
// current epoch so applied updates keep reporting (epoch derivations
// share one op-stat block). The index keeps plain atomics and no obs
// dependency; the registry reads its snapshot at exposition time. When
// several engines share one registry the first engine wins — per-index
// metrics want per-engine registries.
func (e *Engine) registerEpochMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("xrefine_index_list_hits_total",
		"Inverted-list fetches served by an already-resident list.",
		func() float64 { return float64(e.Index().OpStats().ListsResident) })
	r.CounterFunc("xrefine_index_list_loads_total",
		"Inverted lists lazily loaded from the backing store.",
		func() float64 { return float64(e.Index().OpStats().ListsLoaded) })
	r.CounterFunc("xrefine_index_postings_loaded_total",
		"Postings decoded by lazy list loads.",
		func() float64 { return float64(e.Index().OpStats().PostingsLoaded) })
	r.GaugeFunc("xrefine_mutate_epoch",
		"Current index epoch (update generation).",
		func() float64 { return float64(e.Epoch()) })
	// Block-codec families: package-level decode counters from the
	// succinct posting-list representation, plus the current epoch's
	// resident core footprint.
	r.CounterFunc("xrefine_index_block_decodes_total",
		"Posting-list blocks decoded (view-cache and cursor-scratch misses).",
		func() float64 { return float64(index.BlockStats().Decodes) })
	r.CounterFunc("xrefine_index_block_postings_decoded_total",
		"Postings materialized by block decodes.",
		func() float64 { return float64(index.BlockStats().DecodedPostings) })
	r.CounterFunc("xrefine_index_block_cursor_gets_total",
		"Block-cursor scratch buffers acquired from the pool.",
		func() float64 { return float64(index.BlockStats().CursorScratchGets) })
	r.CounterFunc("xrefine_index_block_cursor_allocs_total",
		"Cursor scratch acquisitions that missed the pool and allocated.",
		func() float64 { return float64(index.BlockStats().CursorScratchNews) })
	r.GaugeFunc("xrefine_index_block_resident_bytes",
		"Resident bytes of currently loaded posting-list cores (encoded payload + skip + type tables).",
		func() float64 { return float64(e.Index().ResidentBytes()) })
}

// InstrumentStore bridges a storage backend's physical counters into a
// registry. core.Open calls it for the engine's own store; callers that
// open side stores (the document store of a split layout) may call it
// themselves. Re-instrumenting (a reopened store) replaces the bridge
// functions. The B+tree engine contributes its page-IO families; the log
// engine contributes segment/keydir/compaction families; both report the
// generic xrefine_storage_* surface.
func InstrumentStore(r *obs.Registry, st storage.Backend) {
	if r == nil || st == nil {
		return
	}
	r.GaugeFunc("xrefine_storage_disk_bytes",
		"On-disk footprint of the backing store (pages or segment files).",
		func() float64 { return float64(st.StorageStats().DiskBytes) })
	r.GaugeFunc("xrefine_storage_keys",
		"Key-value pairs in the backing store.",
		func() float64 { return float64(st.StorageStats().Keys) })
	if kv, ok := st.(*kvstore.Store); ok {
		r.CounterFunc("xrefine_kvstore_page_reads_total",
			"Pages read from the pager (decoded-cache misses).",
			func() float64 { return float64(kv.OpStats().PageReads) })
		r.CounterFunc("xrefine_kvstore_page_writes_total",
			"Pages written to the pager.",
			func() float64 { return float64(kv.OpStats().PageWrites) })
		r.CounterFunc("xrefine_kvstore_checksum_failures_total",
			"Pages whose CRC32 trailer failed verification.",
			func() float64 { return float64(kv.OpStats().ChecksumFailures) })
		r.CounterFunc("xrefine_kvstore_faults_injected_total",
			"Page operations disrupted by an armed failpoint.",
			func() float64 { return float64(kv.OpStats().FaultsInjected) })
	}
	if st.Kind() == storage.KindLog {
		r.GaugeFunc("xrefine_logstore_segments",
			"Segment data files (sealed + active) in the log store.",
			func() float64 { return float64(st.StorageStats().Segments) })
		r.GaugeFunc("xrefine_logstore_live_bytes",
			"Bytes of record frames the keydir still references.",
			func() float64 { return float64(st.StorageStats().LiveBytes) })
		r.GaugeFunc("xrefine_logstore_dead_bytes",
			"Bytes of superseded records, tombstones, and commit frames awaiting compaction.",
			func() float64 { return float64(st.StorageStats().DeadBytes) })
		r.GaugeFunc("xrefine_logstore_keydir_entries",
			"Entries in the in-memory key directory.",
			func() float64 { return float64(st.StorageStats().KeydirEntries) })
		r.GaugeFunc("xrefine_logstore_keydir_bytes",
			"Approximate resident bytes of the key directory.",
			func() float64 { return float64(st.StorageStats().KeydirBytes) })
		r.CounterFunc("xrefine_logstore_compactions_total",
			"Completed merge passes since open.",
			func() float64 { return float64(st.StorageStats().Compactions) })
	}
}
