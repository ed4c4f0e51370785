package shard

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/index"
	"xrefine/internal/mutate"
	"xrefine/internal/narrow"
	"xrefine/internal/obs"
	"xrefine/internal/refine"
	"xrefine/internal/storage"
	"xrefine/internal/storage/backends"
	"xrefine/internal/xmltree"
)

// Options tunes a Router.
type Options struct {
	// Live opens every replica's store read-write, enabling Apply.
	// Read-only routers refuse updates like a frozen engine.
	Live bool
	// Config is the engine configuration shared by the shards and the
	// meta engine (K, budgets, metrics registry). Nil works.
	Config *core.Config

	// Replicas bounds how many replicas per shard Open attaches from the
	// manifest: 0 opens every replica the directory carries, 1 opens the
	// primary only, R opens min(R, available).
	Replicas int
	// HedgeAfter is the delay after which a shard scan still outstanding
	// on its primary replica is hedged onto the next-best replica; the
	// first scan to finish wins and the loser is cancelled. 0 disables
	// hedging (the single-replica behavior).
	HedgeAfter time.Duration
	// Retries is the number of extra scan attempts a shard gets beyond
	// one per readable replica before the scan fails and the response
	// degrades shard-partial. 0 means the default (1); negative disables
	// retries entirely. Retry rounds back off from retryBackoff, doubling.
	Retries int
	// Chaos, when non-nil, arms a seeded probabilistic fault injector
	// (error rate and/or latency jitter) on every replica store Open
	// opens — the xserve -chaos soak mode. Ignored by the NewFromStores
	// constructors, whose callers own the stores.
	Chaos *Chaos
}

const (
	// defaultRetries is the Options.Retries of the zero value.
	defaultRetries = 1
	// retryBackoff is the delay before the first sequential retry round;
	// each further round doubles it.
	retryBackoff = 2 * time.Millisecond
	// breakerThreshold consecutive scan errors open a replica's circuit
	// breaker, which then holds the replica out of primary read selection
	// for breakerCooldown.
	breakerThreshold = 3
	breakerCooldown  = 3 * time.Second
)

// metaState is the router's partition ownership map, rebuilt whole after
// every committed update and swapped in with one pointer store.
type metaState struct {
	// owners maps a partition ordinal (the second Dewey component) to the
	// shard holding it; rootOwner is the shard owning the highest ordinal
	// — the one whose local root mints the same next-child ordinal the
	// monolithic corpus root would, so root-level inserts route there.
	owners    map[uint32]int
	rootOwner int
}

// routerMetrics are the scatter-gather and replica families, registered on
// the shared registry next to the meta engine's.
type routerMetrics struct {
	scans      *obs.CounterVec
	scanErrors *obs.CounterVec
	partial    *obs.Counter
	mergeSecs  *obs.Histogram

	replicaScans  *obs.CounterVec
	replicaErrors *obs.CounterVec
	attemptSecs   *obs.HistogramVec
	hedges        *obs.Counter
	hedgeWins     *obs.Counter
	retries       *obs.Counter
	breakerTrips  *obs.Counter
	quarantines   *obs.Counter
	reconciles    *obs.Counter
}

// Router hosts one corpus across independent engine shards — each shard an
// R-way replica set with its own store and epoch per replica — and
// serves the whole core.Engine query surface through a meta engine over
// the merged index. The meta engine answers every query itself (prepare,
// deadline, budget, ranking, accounting) and keeps the router's epoch and
// counters on the shared registry; only its exploration is the router's:
// the one partition walk of package refine with each shard as a source,
// per-shard scans sharing one budget, pruning bound and dynamic-program
// memo and merged back in global document order, so responses are
// byte-identical to a monolithic engine over the concatenated corpus no
// matter which replica serves each scan.
//
// Each shard scan picks the healthiest replica (EWMA latency, circuit
// breaker state); with HedgeAfter set, a scan still outstanding past the
// delay is hedged onto the next replica and the loser is cancelled through
// the context plumbing. Transient faults retry with backoff across the
// replica set before the shard is declared failed. Writes route to every
// replica of the owning shard; a replica that misses a commit is detected
// by epoch mismatch, quarantined from reads, and caught up by copying a
// caught-up sibling's committed store into its own before it rejoins.
type Router struct {
	reg        *xmltree.Registry
	mreg       *obs.Registry
	groups     []*replicaGroup
	ownsStores bool

	hedgeAfter time.Duration
	retries    int

	// eng is the meta engine: its epoch is the merged index at the sum of
	// the shard epochs, republished after every commit.
	eng *core.Engine
	// applyMu serializes writers and reconciliation; the meta state swap
	// is the publish.
	applyMu sync.Mutex
	meta    atomic.Pointer[metaState]
	// shardCfg configures the replica engines, reopened with it after
	// reconciliation rewrites a replica's store.
	shardCfg core.Config

	m routerMetrics
	// flight is the shared registry's event ring: the router records the
	// fan-out lifecycle (per-replica attempts, hedges, retries,
	// breaker trips, quarantine/reconcile, commits) for every request.
	flight *obs.FlightRecorder
}

// Open opens the shard directory written by WriteStores /
// WriteReplicatedStores and builds a router over it. Live routers open the
// stores read-write and accept updates; read-only routers open them
// read-only. The router owns the stores; Close releases them.
func Open(dir string, opts *Options) (*Router, error) {
	if opts == nil {
		opts = &Options{}
	}
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	var stores [][]storage.Backend
	var faults [][]*storage.Faults
	closeAll := func() {
		for _, grp := range stores {
			for _, s := range grp {
				s.Close()
			}
		}
	}
	for _, ent := range man.Shards {
		files := ent.Files()
		if opts.Replicas > 0 && len(files) > opts.Replicas {
			files = files[:opts.Replicas]
		}
		var grp []storage.Backend
		var fs []*storage.Faults
		for _, rf := range files {
			var f *storage.Faults
			if opts.Chaos != nil {
				f = &storage.Faults{} // attached now, armed after load
			}
			s, err := backends.Open(storage.KindBTree, filepath.Join(dir, rf.Store), &storage.Options{ReadOnly: !opts.Live, Faults: f})
			if err != nil {
				closeAll()
				return nil, err
			}
			grp = append(grp, s)
			fs = append(fs, f)
		}
		stores = append(stores, grp)
		faults = append(faults, fs)
	}
	r, err := NewReplicated(stores, opts)
	if err != nil {
		closeAll()
		return nil, err
	}
	for i, g := range r.groups {
		for j, rp := range g.reps {
			rp.faults = faults[i][j]
			opts.Chaos.arm(rp.faults, i, j)
		}
	}
	r.ownsStores = true
	return r, nil
}

// NewFromStores builds a single-replica router over already-open shard
// stores (written with WriteStores semantics: disjoint partition subsets
// of one corpus, global Dewey labels, a shared bare container root). The
// caller owns the stores unless the router was built through Open.
func NewFromStores(stores []storage.Backend, opts *Options) (*Router, error) {
	grp := make([][]storage.Backend, len(stores))
	for i, s := range stores {
		grp[i] = []storage.Backend{s}
	}
	return NewReplicated(grp, opts)
}

// NewReplicated builds a router over already-open replica store groups:
// stores[i][j] is replica j of shard i, every replica of a shard holding
// an identical copy of that shard's subset. A replica whose store epoch
// is below its group's highest missed commits before this open; it starts
// quarantined and, on a live router, is caught up from a sibling's store
// before the router serves (a read-only router cannot write its store, so
// it stays quarantined). The caller owns the stores unless the router was
// built through Open.
func NewReplicated(stores [][]storage.Backend, opts *Options) (*Router, error) {
	if opts == nil {
		opts = &Options{}
	}
	if len(stores) == 0 {
		return nil, errors.New("shard: no shard stores")
	}
	cfg := core.Config{}
	if opts.Config != nil {
		cfg = *opts.Config
	}
	r := &Router{hedgeAfter: opts.HedgeAfter, retries: opts.Retries}
	switch {
	case r.retries == 0:
		r.retries = defaultRetries
	case r.retries < 0:
		r.retries = 0
	}
	r.mreg = cfg.Metrics
	if cfg.DisableMetrics {
		r.mreg = obs.Disabled()
	} else if r.mreg == nil {
		r.mreg = obs.NewRegistry()
	}
	r.reg = xmltree.NewRegistry()
	// Replica engines run without metrics: the meta engine counts every
	// query and commit once on the shared registry.
	r.shardCfg = cfg
	r.shardCfg.Metrics = nil
	r.shardCfg.DisableMetrics = true
	for i, grp := range stores {
		if len(grp) == 0 {
			return nil, fmt.Errorf("shard: shard %d has no replica stores", i)
		}
		g := &replicaGroup{shard: i}
		for j, s := range grp {
			var eng *core.Engine
			var err error
			if opts.Live {
				eng, err = core.OpenLiveShared(s, r.reg, &r.shardCfg)
			} else {
				eng, err = core.OpenShared(s, r.reg, &r.shardCfg)
			}
			if err != nil {
				return nil, fmt.Errorf("shard: open shard %d replica %d: %w", i, j, err)
			}
			rp := &replica{shard: i, id: j, store: s}
			rp.eng.Store(eng)
			g.reps = append(g.reps, rp)
		}
		r.groups = append(r.groups, g)
	}
	r.m = routerMetrics{
		scans: r.mreg.CounterVec("xrefine_shard_scans_total",
			"Per-shard partition scans executed.", "shard"),
		scanErrors: r.mreg.CounterVec("xrefine_shard_scan_errors_total",
			"Per-shard scans whose every replica attempt failed and were dropped from the merge.", "shard"),
		partial: r.mreg.Counter("xrefine_shard_partial_total",
			"Responses degraded shard-partial because a shard scan failed."),
		mergeSecs: r.mreg.Histogram("xrefine_shard_merge_seconds",
			"Cross-shard merge latency in seconds.", obs.DefBuckets),
		replicaScans: r.mreg.CounterVec("xrefine_replica_scans_total",
			"Scan attempts dispatched, by shard and replica.", "shard", "replica"),
		replicaErrors: r.mreg.CounterVec("xrefine_replica_errors_total",
			"Scan attempts that failed, by shard and replica.", "shard", "replica"),
		attemptSecs: r.mreg.HistogramVec("xrefine_replica_attempt_seconds",
			"Per-replica scan attempt latency in seconds, by shard.", obs.DefBuckets, "shard"),
		hedges: r.mreg.Counter("xrefine_replica_hedges_total",
			"Hedge scans fired because the primary replica was slow."),
		hedgeWins: r.mreg.Counter("xrefine_replica_hedge_wins_total",
			"Hedge scans that finished before the primary attempt."),
		retries: r.mreg.Counter("xrefine_replica_retries_total",
			"Sequential scan retries after a failed attempt."),
		breakerTrips: r.mreg.Counter("xrefine_replica_breaker_trips_total",
			"Circuit-breaker openings after consecutive replica errors."),
		quarantines: r.mreg.Counter("xrefine_replica_quarantines_total",
			"Replicas quarantined from reads on an epoch mismatch."),
		reconciles: r.mreg.Counter("xrefine_replica_reconciles_total",
			"Quarantined replicas caught up by copying a sibling's committed store and rejoined."),
	}
	r.mreg.GaugeFunc("xrefine_replica_quarantined",
		"Replicas currently quarantined from reads (epoch-lagged).",
		func() float64 {
			n := 0
			for _, g := range r.groups {
				for _, rp := range g.reps {
					if rp.quarantined.Load() {
						n++
					}
				}
			}
			return float64(n)
		})
	r.mreg.GaugeFunc("xrefine_replica_breaker_open",
		"Replicas whose circuit breaker is currently open.",
		func() float64 {
			now := time.Now().UnixNano()
			n := 0
			for _, g := range r.groups {
				for _, rp := range g.reps {
					if rp.breakerOpen(now) {
						n++
					}
				}
			}
			return float64(n)
		})
	r.mreg.GaugeFunc("xrefine_replica_epoch_lag_max",
		"Largest epoch lag of any replica behind its group.",
		func() float64 {
			var max uint64
			for _, g := range r.groups {
				top := g.maxEpoch()
				for _, rp := range g.reps {
					if e := rp.eng.Load().Epoch(); top-e > max {
						max = top - e
					}
				}
			}
			return float64(max)
		})
	r.flight = r.mreg.Flight()
	for i, g := range r.groups {
		r.quarantineLagging(g)
		r.reconcileLocked(i)
	}
	merged, err := r.merge()
	if err != nil {
		return nil, err
	}
	metaCfg := cfg
	metaCfg.Metrics = r.mreg
	r.eng = core.NewWithExplorer(merged, &metaCfg, r.explore)
	r.publish(merged, nil)
	return r, nil
}

// Close releases the stores when the router opened the shard directory
// itself; a router built over the caller's stores holds nothing to release.
func (r *Router) Close() error {
	if !r.ownsStores {
		return nil
	}
	var first error
	for _, g := range r.groups {
		for _, rp := range g.reps {
			if err := rp.store.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Shards returns the number of shards.
func (r *Router) Shards() int { return len(r.groups) }

// Replicas returns the replica count of the widest shard.
func (r *Router) Replicas() int {
	max := 0
	for _, g := range r.groups {
		if len(g.reps) > max {
			max = len(g.reps)
		}
	}
	return max
}

// ShardEpochs returns every shard's current epoch (its primary replica's),
// in shard order — the serving layer surfaces them on /healthz.
func (r *Router) ShardEpochs() []uint64 {
	out := make([]uint64, len(r.groups))
	for i, g := range r.groups {
		out[i] = g.primary().eng.Load().Epoch()
	}
	return out
}

// ReplicaTable returns one health row per replica, in shard then replica
// order — the /healthz replica table.
func (r *Router) ReplicaTable() []ReplicaStatus {
	var out []ReplicaStatus
	for _, g := range r.groups {
		out = append(out, g.statuses()...)
	}
	return out
}

// Health reports the meta engine's worker bound, the per-shard epochs and
// the replica table for /healthz.
func (r *Router) Health() core.HealthExtras {
	hx := r.eng.Health()
	hx.ShardEpochs, hx.Replicas = r.ShardEpochs(), r.ReplicaTable()
	return hx
}

// merge builds the meta index over each shard primary's index.
func (r *Router) merge() (*index.Index, error) {
	parts := make([]*index.Index, len(r.groups))
	for i, g := range r.groups {
		parts[i] = g.primary().eng.Load().Index()
	}
	return index.Merge(parts)
}

// publish makes merged the meta engine's epoch at the sum of the shard
// epochs — one per batch committed anywhere — counting res, the commit
// that produced it (nil at construction), and swaps in the ownership map
// of the shards merged came from. Called at construction and, under
// applyMu, after every commit.
func (r *Router) publish(merged *index.Index, res *core.ApplyResult) {
	ms := &metaState{owners: make(map[uint32]int)}
	var maxOrd uint32
	seen := false
	var epoch uint64
	for i, g := range r.groups {
		p := g.primary().eng.Load()
		epoch += p.Epoch()
		for _, pid := range p.Index().PartitionRoots() {
			ord := pid[1]
			ms.owners[ord] = i
			if !seen || ord > maxOrd {
				maxOrd, ms.rootOwner, seen = ord, i, true
			}
		}
	}
	r.eng.Publish(merged, epoch, res)
	r.meta.Store(ms)
}

// state loads the current meta snapshot.
func (r *Router) state() *metaState { return r.meta.Load() }

// QueryTermsCtx answers a pre-tokenized query — the router half of the
// core.Engine entry point of the same name — on the current meta engine,
// whose exploration is explore.
func (r *Router) QueryTermsCtx(ctx context.Context, terms []string, strategy core.Strategy, k, parallelism int) (*core.Response, error) {
	return r.eng.QueryTermsCtx(ctx, terms, strategy, k, parallelism)
}

// explore is the meta engine's exploration: the one
// partition walk (refine.RunScans → refine.MergeScans) with each shard as a
// source, every shard's scan resolved against its replica set (hedging,
// failover, retry). in is the merged-corpus input the meta engine
// prepared; under tracing each attempt hangs a "shard-i" span and the
// merge a "merge" span off its refine:partition span.
//
// A shard whose every replica attempt failed degrades the outcome to the
// surviving shards' results, tagged shard-partial, instead of failing the
// query; hard cancellation still aborts, and when every shard fails the
// first error is returned.
func (r *Router) explore(in refine.Input, k int) (*refine.TopKOutcome, error) {
	// The scan keyword set is fixed here, against the merged index, so
	// every shard walks identical keyword columns even when a term is
	// absent from its slice of the corpus.
	ks := in.ScanKeywords()
	if len(ks) == 0 {
		return &refine.TopKOutcome{}, nil
	}
	jobs := make([]refine.ScanJob, len(r.groups))
	for i := range jobs {
		jobs[i] = func(walk *refine.Walk) (*refine.Scan, error) {
			scan, err := r.scanShardReplicated(in, k, ks, walk, i)
			r.m.scans.With(strconv.Itoa(i)).Inc()
			if err != nil {
				r.m.scanErrors.With(strconv.Itoa(i)).Inc()
			}
			return scan, err
		}
	}
	scans, errs := refine.RunScans(in.Budget, jobs)
	// Classify failures: a hard cancellation aborts the query; a shard
	// whose every replica attempt failed (storage fault) is dropped and
	// the response degrades to the surviving shards, unless none survived.
	partial := false
	var firstErr error
	ok := 0
	for i, err := range errs {
		if err == nil {
			ok++
			continue
		}
		if in.Budget.Err() != nil || errors.Is(err, context.Canceled) {
			for _, s := range scans {
				s.Release()
			}
			return nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
		partial = true
		scans[i] = nil
	}
	if ok == 0 {
		return nil, firstErr
	}
	msp := in.Trace.StartChild("merge")
	start := time.Now()
	out := refine.MergeScans(in, k, scans)
	r.m.mergeSecs.Observe(time.Since(start).Seconds())
	msp.End()
	if partial {
		out.Degraded = true
		out.DegradedReason = refine.DegradedShardPartial
		r.m.partial.Inc()
	}
	return out, nil
}

// attemptResult is one replica scan attempt's outcome.
type attemptResult struct {
	rp    *replica
	scan  *refine.Scan
	err   error
	dur   time.Duration
	hedge bool
}

// scanShardReplicated resolves one shard's scan against its replica set:
// the scan starts on the best replica by health order; if HedgeAfter
// passes before it finishes, a hedge fires on the next replica and the
// first success wins (the loser is cancelled through its attempt context,
// which shares the query's posting budget but not its lifetime). A failed
// attempt fails over to the next replica with doubling backoff, up to one
// attempt per readable replica plus the configured retries, before the
// shard is declared failed. Each attempt's scan borrows its own state; a
// loser's is left to the collector, so it never touches the query's.
func (r *Router) scanShardReplicated(in refine.Input, k int, ks []string, walk *refine.Walk, si int) (*refine.Scan, error) {
	g := r.groups[si]
	order := g.readOrder()
	if len(order) == 0 {
		return nil, fmt.Errorf("shard: shard %d has no readable replica", si)
	}
	maxAttempts := len(order) + r.retries
	baseCtx := in.Budget.Context()
	ri := obs.ReqInfoFromContext(baseCtx)
	tid := ri.TraceID()
	// Read here, on the query's goroutine: a hedge loser outlives the
	// query, and a wire connection reuses ri for its next request.
	exemplar := ri.IsSampled() && tid != 0
	resCh := make(chan attemptResult, maxAttempts)
	var cancels []context.CancelFunc
	outstanding := 0
	defer func() {
		// Cancel every attempt context on exit: losers stop promptly, and
		// the winner's scan no longer consults its context.
		for _, c := range cancels {
			c()
		}
		// A traced loser writes into the query's span tree, which the
		// pipeline returns to a pool once the query is answered: wait for
		// the cancelled losers before answering.
		if in.Trace != nil {
			for ; outstanding > 0; outstanding-- {
				<-resCh
			}
		}
	}()
	launched := 0
	launch := func(hedge bool) {
		rp := order[launched%len(order)]
		launched++
		actx, cancel := context.WithCancel(baseCtx)
		cancels = append(cancels, cancel)
		r.m.replicaScans.With(strconv.Itoa(si), strconv.Itoa(rp.id)).Inc()
		// Record the start event before spawning the goroutine: on a
		// loaded (or single-P) scheduler the attempt goroutine may not
		// run until after a fast sibling has already won, and the ring
		// must still show every launched attempt by the time the query
		// returns — consumers pair starts with terminal events.
		start := time.Now()
		r.flight.Record(obs.Event{Trace: tid, Kind: obs.EvAttemptStart,
			Shard: si, Replica: rp.id, Hedge: hedge})
		go func() {
			sin := in
			sin.Index = rp.eng.Load().Index()
			sin.Budget = in.Budget.WithContext(actx)
			var sp *obs.Span
			if in.Trace != nil {
				sp = in.Trace.StartChild("shard-" + strconv.Itoa(si))
				sp.SetInt("replica", int64(rp.id))
				if hedge {
					sp.SetInt("hedge", 1)
				}
				sin.Trace = sp
			}
			scan, err := refine.ScanShard(sin, k, ks, walk)
			if sp != nil {
				if scan != nil {
					sp.SetInt("partitions", int64(scan.Partitions()))
				}
				if err != nil {
					sp.SetStr("error", err.Error())
				}
				sp.End()
			}
			dur := time.Since(start)
			ev := obs.Event{Trace: tid, Kind: obs.EvAttemptEnd,
				Shard: si, Replica: rp.id, Hedge: hedge, DurNS: int64(dur)}
			switch {
			case err == nil:
			case errors.Is(err, context.Canceled):
				// A cancelled attempt is a hedge/failover loser, not a fault.
				ev.Kind = obs.EvAttemptCancel
			default:
				ev.Note = "error"
			}
			r.flight.Record(ev)
			h := r.m.attemptSecs.With(strconv.Itoa(si))
			if exemplar {
				h.ObserveExemplar(dur.Seconds(), tid, time.Now())
			} else {
				h.Observe(dur.Seconds())
			}
			resCh <- attemptResult{rp: rp, scan: scan, err: err, dur: dur, hedge: hedge}
		}()
	}
	launch(false)
	outstanding = 1
	var hedgeC <-chan time.Time
	if r.hedgeAfter > 0 && len(order) > 1 {
		t := time.NewTimer(r.hedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	backoff := retryBackoff
	var firstErr error
	for {
		select {
		case res := <-resCh:
			outstanding--
			if res.err == nil {
				res.rp.noteSuccess(res.dur)
				ri.NoteServe(si, res.rp.id, res.hedge, res.dur)
				if res.hedge {
					r.m.hedgeWins.Inc()
					r.flight.Record(obs.Event{Trace: tid, Kind: obs.EvHedgeWin,
						Shard: si, Replica: res.rp.id, Hedge: true, DurNS: int64(res.dur)})
				}
				return res.scan, nil
			}
			r.m.replicaErrors.With(strconv.Itoa(si), strconv.Itoa(res.rp.id)).Inc()
			if res.rp.noteError() {
				r.m.breakerTrips.Inc()
				r.flight.Record(obs.Event{Trace: tid, Kind: obs.EvBreakerOpen,
					Shard: si, Replica: res.rp.id})
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if err := in.Budget.Err(); err != nil {
				return nil, err // the whole query was cancelled
			}
			if outstanding > 0 {
				continue // a hedge is still racing; wait for it
			}
			if launched >= maxAttempts {
				return nil, firstErr
			}
			r.m.retries.Inc()
			r.flight.Record(obs.Event{Trace: tid, Kind: obs.EvRetry, Shard: si, Replica: -1})
			if backoff > 0 {
				t := time.NewTimer(backoff)
				select {
				case <-t.C:
				case <-baseCtx.Done():
					t.Stop()
					if err := in.Budget.Err(); err != nil {
						return nil, err
					}
					return nil, firstErr
				}
				backoff *= 2
			}
			launch(false)
			outstanding++
		case <-hedgeC:
			hedgeC = nil
			if outstanding > 0 && launched < maxAttempts {
				r.m.hedges.Inc()
				r.flight.Record(obs.Event{Trace: tid, Kind: obs.EvHedgeFire, Shard: si, Replica: -1})
				launch(true)
				outstanding++
			}
		}
	}
}

// Complete delegates search-as-you-type to the merged vocabulary.
func (r *Router) Complete(partial string, k int) []string {
	return r.eng.Complete(partial, k)
}

// Narrow is unavailable on a router: narrowing verifies suggestions
// against the source document, and the merged meta engine has none.
func (r *Router) Narrow(_ context.Context, q string, opts *narrow.Options) (*narrow.Outcome, error) {
	return nil, narrow.ErrNeedsDocument
}

// Index returns the merged corpus index of the current snapshot.
func (r *Router) Index() *index.Index { return r.eng.Index() }

// Metrics returns the shared registry: meta engine, scatter-gather and
// (through the serving layer) HTTP families in one catalog.
func (r *Router) Metrics() *obs.Registry { return r.mreg }

// Snippet renders a match by routing to the shard owning its partition.
func (r *Router) Snippet(m refine.Match, max int) (string, bool) {
	if eng := r.owner(m); eng != nil {
		return eng.Snippet(m, max)
	}
	return "", false
}

// AppendSnippetJSON appends Snippet as a JSON string literal to dst; with
// ok false dst comes back unchanged.
func (r *Router) AppendSnippetJSON(dst []byte, m refine.Match, max int) ([]byte, bool) {
	if eng := r.owner(m); eng != nil {
		return eng.AppendSnippetJSON(dst, m, max)
	}
	return dst, false
}

// owner is the primary engine of the shard owning m's partition, or nil.
func (r *Router) owner(m refine.Match) *core.Engine {
	if len(m.ID) < 2 {
		return nil
	}
	i, ok := r.state().owners[m.ID[1]]
	if !ok {
		return nil
	}
	return r.groups[i].primary().eng.Load()
}

// UpdateStats reports the router's live-update state: Epoch is the meta
// engine's (the shard epoch sum), and Live reports whether any shard
// accepts updates.
func (r *Router) UpdateStats() core.UpdateStats {
	out := core.UpdateStats{Epoch: r.eng.Epoch()}
	for _, g := range r.groups {
		out.Live = out.Live || g.primary().eng.Load().UpdateStats().Live
	}
	return out
}

// ownerOf resolves the shard responsible for one op. Inserts route by the
// parent's partition — a root-level insert creates a partition and goes to
// the shard owning the highest ordinal, whose local root mints the same
// next-child label the monolithic root would. Deletes route by target;
// deleting the corpus root is refused.
func (r *Router) ownerOf(ms *metaState, op mutate.Op) (int, error) {
	var id []uint32
	switch op.Kind {
	case mutate.OpInsert:
		id = op.Parent
	case mutate.OpDelete:
		id = op.Target
	default:
		return 0, fmt.Errorf("shard: unknown op kind %d", op.Kind)
	}
	if len(id) == 0 {
		return 0, errors.New("shard: op has no target label")
	}
	if len(id) == 1 {
		if op.Kind == mutate.OpDelete {
			return 0, errors.New("shard: refusing to delete the corpus root")
		}
		return ms.rootOwner, nil
	}
	owner, ok := ms.owners[id[1]]
	if !ok {
		return 0, fmt.Errorf("shard: no shard owns partition %d", id[1])
	}
	return owner, nil
}

// SplitBatch groups a batch's ops by owning shard, preserving op order
// within each group — the client-side remedy when Apply rejects a batch
// as spanning shards (each group commits as one epoch on its shard).
func (r *Router) SplitBatch(b *mutate.Batch) (map[int]*mutate.Batch, error) {
	ms := r.state()
	out := make(map[int]*mutate.Batch)
	for _, op := range b.Ops {
		owner, err := r.ownerOf(ms, op)
		if err != nil {
			return nil, err
		}
		g := out[owner]
		if g == nil {
			g = &mutate.Batch{}
			out[owner] = g
		}
		g.Ops = append(g.Ops, op)
	}
	return out, nil
}

// Apply routes one update batch to every replica of the shard owning its
// partitions, then rebuilds the merged meta state. A batch is one atomic
// epoch commit, so all its ops must land on one shard; batches spanning
// shards are rejected whole — SplitBatch turns one into per-shard batches.
//
// Replica divergence is handled by epoch reconciliation: a replica whose
// commit failed while a sibling's succeeded is left epoch-lagged, detected
// by the mismatch and quarantined from reads. Right after each commit,
// every quarantined replica of the shard is caught up by copying a
// caught-up sibling's committed store into its own, and rejoins. A batch
// that fails on every replica commits nowhere, advances no epoch, and is
// returned as the caller's error. The returned Epoch is the meta
// engine's — the shard epoch sum, the router-wide generation /healthz and
// callers observe.
func (r *Router) Apply(b *mutate.Batch) (*core.ApplyResult, error) {
	if b == nil || len(b.Ops) == 0 {
		return nil, errors.New("shard: empty batch")
	}
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	ms := r.state()
	owner := -1
	for _, op := range b.Ops {
		o, err := r.ownerOf(ms, op)
		if err != nil {
			return nil, err
		}
		if owner == -1 {
			owner = o
		} else if o != owner {
			return nil, fmt.Errorf("shard: batch spans shards %d and %d; split it per shard (one epoch commit each)", owner, o)
		}
	}
	g := r.groups[owner]
	var res *core.ApplyResult
	var firstErr error
	for _, rp := range g.reps {
		if rp.quarantined.Load() {
			continue // still lagging; reconciliation below copies this batch in
		}
		rres, err := rp.eng.Load().Apply(b)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if res == nil {
			res = rres
		}
	}
	if res == nil {
		// No replica committed: the batch was rejected (bad target,
		// malformed fragment) or every store failed. Either way no epoch
		// moved, so the group is still consistent and nothing quarantines.
		return nil, firstErr
	}
	r.flight.Record(obs.Event{Kind: obs.EvCommit, Shard: owner, Replica: -1, N: int64(res.Epoch)})
	// Epoch reconciliation: any replica now behind the group missed this
	// commit and is quarantined from reads; every quarantined replica then
	// tries to catch up, so a healed store rejoins at this epoch.
	r.quarantineLagging(g)
	r.reconcileLocked(owner)
	merged, err := r.merge()
	if err != nil {
		return nil, fmt.Errorf("shard: update committed on shard %d but meta rebuild failed: %w", owner, err)
	}
	r.publish(merged, res)
	res.Epoch = r.eng.Epoch()
	return res, nil
}

// quarantineLagging quarantines every replica of g below the group's
// highest epoch — it missed a commit — and counts each one newly
// quarantined.
func (r *Router) quarantineLagging(g *replicaGroup) {
	max := g.maxEpoch()
	for _, rp := range g.reps {
		if e := rp.eng.Load().Epoch(); e < max && !rp.quarantined.Load() {
			rp.quarantined.Store(true)
			r.m.quarantines.Inc()
			r.flight.Record(obs.Event{Kind: obs.EvQuarantine, Shard: g.shard, Replica: rp.id,
				N: int64(max - e), Note: "epoch-lag"})
		}
	}
}

// reconcileLocked catches shard si's quarantined replicas up to the group
// epoch and rejoins them. The source is the group's primary: the first
// non-quarantined replica, which quarantineLagging leaves only at the
// group's highest epoch. One copy of its committed store costs a pass over
// the shard however many commits the replica missed, and needs nothing a
// restart loses. A replica whose store is read-only, or whose copy or
// reopen fails, stays quarantined until the next attempt. Caller holds
// applyMu, or is constructing the router.
func (r *Router) reconcileLocked(si int) {
	g := r.groups[si]
	src := g.primary()
	if src.quarantined.Load() {
		return // every replica lags: no caught-up copy to take
	}
	target := src.eng.Load().Epoch()
	for _, rp := range g.reps {
		if !rp.quarantined.Load() || !rp.eng.Load().UpdateStats().Live {
			continue
		}
		if err := r.copyStore(rp, src.store, target); err != nil {
			continue
		}
		rp.quarantined.Store(false)
		rp.consecErrs.Store(0)
		rp.breakerUntil.Store(0)
		r.m.reconciles.Inc()
		r.flight.Record(obs.Event{Kind: obs.EvReconcile, Shard: si, Replica: rp.id, N: int64(target)})
	}
}

// copyStore rewrites rp's store as src's committed key space at epoch
// target, in one store commit, and swaps in an engine reopened over it.
// It first forces every posting list of rp's current index resident: a
// reader still pinned to that index (an in-flight scan) must never lazily
// load a list of another epoch from the rewritten store. On error the store is rolled
// back to its last commit and rp keeps its engine.
func (r *Router) copyStore(rp *replica, src storage.Backend, target uint64) error {
	ix := rp.eng.Load().Index()
	for _, t := range ix.Vocabulary() {
		if _, err := ix.List(t); err != nil {
			return err
		}
	}
	dst := rp.store
	err := func() error {
		if _, err := dst.DeleteRange(nil, nil); err != nil {
			return err
		}
		var putErr error
		if err := src.Range(nil, nil, func(k, v []byte) bool {
			putErr = dst.Put(k, v)
			return putErr == nil
		}); err != nil {
			return err
		}
		if putErr != nil {
			return putErr
		}
		if err := dst.SetEpoch(target); err != nil {
			return err
		}
		return dst.Commit()
	}()
	if err != nil {
		// A failed rollback leaves staged writes behind; the next attempt's
		// DeleteRange discards them with everything else.
		dst.Rollback()
		return err
	}
	eng, err := core.OpenLiveShared(dst, r.reg, &r.shardCfg)
	if err != nil {
		return err
	}
	rp.eng.Store(eng)
	return nil
}
