package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/kvstore"
	"xrefine/internal/mutate"
	"xrefine/internal/obs"
	"xrefine/internal/refine"
	"xrefine/internal/server"
	"xrefine/internal/storage"
	"xrefine/internal/storage/backends"
)

// The tests here extend the differential suite to replicated serving: a
// router whose shards are R-way replica sets must stay byte-identical to
// the monolith no matter which replica serves each scan — with hedging on
// or off, under slow, flaky, dead and epoch-lagged replicas — and must
// fail over rather than degrade whenever any replica of a shard survives.

// memReplicatedRouter splits a generated corpus across n shards of rs
// in-memory replica stores each and routers them. faults, when non-nil, is
// indexed faults[shard][replica]; nil entries leave that store unfaulted.
func memReplicatedRouter(t *testing.T, authors int, seed int64, n, rs int, opts *Options, faults [][]*storage.Faults) *Router {
	t.Helper()
	doc := corpusDoc(t, authors, seed)
	subs, err := SplitDocument(doc, n, ModeRange)
	if err != nil {
		t.Fatal(err)
	}
	if opts == nil {
		opts = &Options{}
	}
	stores := make([][]storage.Backend, n)
	for i, sub := range subs {
		eng := core.NewFromDocument(sub, &core.Config{DisableMetrics: true})
		for j := 0; j < rs; j++ {
			var f *storage.Faults
			if faults != nil && faults[i] != nil {
				f = faults[i][j]
			}
			s := kvstore.NewMemWithFaults(f)
			if err := eng.SaveIndexWithDocument(s); err != nil {
				t.Fatal(err)
			}
			stores[i] = append(stores[i], s)
		}
	}
	r, err := NewReplicated(stores, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.Close()
		for _, grp := range stores {
			for _, s := range grp {
				s.Close()
			}
		}
	})
	return r
}

// TestReplicaByteIdentity is the replicated conformance claim: for every
// replica count and with hedging off or aggressive, scatter-gather output
// stays byte-identical to the monolith — whichever replica wins a race
// serves the same bytes.
func TestReplicaByteIdentity(t *testing.T) {
	doc := corpusDoc(t, 32, 11)
	mono := server.New(core.NewFromDocument(doc, nil), server.Config{})
	for _, rs := range []int{1, 2, 3} {
		for _, hedge := range []time.Duration{0, 50 * time.Microsecond} {
			r := memReplicatedRouter(t, 32, 11, 2, rs, &Options{HedgeAfter: hedge}, nil)
			srv := server.New(r, server.Config{})
			for _, q := range diffQueries {
				want := fetchSearch(t, mono, q, 1, 3)
				for _, parallel := range []int{1, 2} {
					got := fetchSearch(t, srv, q, parallel, 3)
					if got != want {
						t.Errorf("replicas=%d hedge=%v parallel=%d q=%q diverged:\n got: %s\nwant: %s",
							rs, hedge, parallel, q, got, want)
					}
				}
			}
		}
	}
}

// TestReplicaFaultMatrix drives the router through the replica fault
// profiles: a slow replica (hedged around), a flaky replica (retried
// over), a dead replica (failed over, breaker opened) and a fully dead
// shard (degraded shard-partial, never a lie).
func TestReplicaFaultMatrix(t *testing.T) {
	doc := corpusDoc(t, 32, 5)
	mono := server.New(core.NewFromDocument(doc, nil), server.Config{})
	want := fetchSearch(t, mono, "database query", 1, 3)

	t.Run("slow-replica-hedged", func(t *testing.T) {
		faults := [][]*storage.Faults{{{}, nil}, {nil, nil}}
		r := memReplicatedRouter(t, 32, 5, 2, 2, &Options{HedgeAfter: 100 * time.Microsecond}, faults)
		srv := server.New(r, server.Config{})
		// Arm after construction so only query-time reads pay the latency.
		faults[0][0].ReadLatency = 2 * time.Millisecond
		r.groups[0].reps[0].store.DropCaches()
		for i := 0; i < 3; i++ {
			if got := fetchSearch(t, srv, "database query", 2, 3); got != want {
				t.Fatalf("slow-replica query %d diverged:\n got: %s\nwant: %s", i, got, want)
			}
		}
		if r.m.hedges.Value() == 0 {
			t.Error("no hedge fired against a 2ms/page replica with a 100µs hedge delay")
		}
		if got := r.m.partial.Value(); got != 0 {
			t.Errorf("slow replica degraded %d responses; hedging should have absorbed it", got)
		}
	})

	t.Run("flaky-replica-retried", func(t *testing.T) {
		faults := [][]*storage.Faults{{{}, nil}, {nil, nil}}
		r := memReplicatedRouter(t, 32, 5, 2, 2, nil, faults)
		srv := server.New(r, server.Config{})
		faults[0][0].Seed(99)
		faults[0][0].SetErrorRate(0.3)
		r.groups[0].reps[0].store.DropCaches()
		for i := 0; i < 8; i++ {
			if got := fetchSearch(t, srv, "database query", 2, 3); got != want {
				t.Fatalf("flaky-replica query %d diverged:\n got: %s\nwant: %s", i, got, want)
			}
		}
		if got := r.m.partial.Value(); got != 0 {
			t.Errorf("flaky replica degraded %d responses; failover should have absorbed it", got)
		}
	})

	t.Run("dead-replica-failover", func(t *testing.T) {
		faults := [][]*storage.Faults{{{}, nil}, {nil, nil}}
		r := memReplicatedRouter(t, 32, 5, 2, 2, nil, faults)
		srv := server.New(r, server.Config{})
		faults[0][0].FailReads(1)
		r.groups[0].reps[0].store.DropCaches()
		// Every query, the refining ones included: ranking's co-occurrence
		// counts must fail over to the live sibling just as the scans do.
		for _, q := range diffQueries {
			want := fetchSearch(t, mono, q, 1, 3)
			for i := 0; i < 5; i++ {
				if got := fetchSearch(t, srv, q, 2, 3); got != want {
					t.Fatalf("dead-replica q=%q round %d diverged:\n got: %s\nwant: %s", q, i, got, want)
				}
			}
		}
		if got := r.m.partial.Value(); got != 0 {
			t.Errorf("dead replica with a live sibling degraded %d responses, want 0", got)
		}
		if obs.SnapshotTotal(r.mreg.Snapshot(), "xrefine_replica_errors_total") == 0 {
			t.Error("dead replica recorded no attempt errors; the failpoint never fired")
		}
		// Dead long enough for the error streak: the breaker opens and the
		// health table says so.
		if r.m.breakerTrips.Value() == 0 {
			t.Error("breaker never tripped after repeated replica failures")
		}
		found := false
		for _, row := range r.ReplicaTable() {
			if row.Shard == 0 && row.Replica == 0 && row.State == StateBreakerOpen {
				found = true
			}
		}
		if !found {
			t.Errorf("replica table missing breaker-open row: %+v", r.ReplicaTable())
		}
	})

	t.Run("all-replicas-dead", func(t *testing.T) {
		faults := [][]*storage.Faults{{{}, {}}, {nil, nil}}
		r := memReplicatedRouter(t, 32, 5, 2, 2, nil, faults)
		for j, rp := range r.groups[0].reps {
			rp.store.DropCaches()
			faults[0][j].FailReads(1)
		}
		resp, err := r.QueryTermsCtx(nil, []string{"database", "query"}, core.StrategyPartition, 3, 2)
		if err != nil {
			t.Fatalf("query with one fully dead shard: %v", err)
		}
		if !resp.Degraded || resp.DegradedReason != refine.DegradedShardPartial {
			t.Fatalf("degraded=%v reason=%q, want shard-partial", resp.Degraded, resp.DegradedReason)
		}
		if got := r.m.partial.Value(); got != 1 {
			t.Errorf("xrefine_shard_partial_total = %d, want 1", got)
		}
		if got := obs.SnapshotTotal(r.mreg.Snapshot(), "xrefine_shard_scan_errors_total"); got != 1 {
			t.Errorf("xrefine_shard_scan_errors_total = %d, want 1 (job-granular)", got)
		}
		// Healing every replica heals the shard.
		faults[0][0].Clear()
		faults[0][1].Clear()
		resp2, err := r.QueryTermsCtx(nil, []string{"database", "query"}, core.StrategyPartition, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if resp2.Degraded {
			t.Errorf("recovered query still degraded: %q", resp2.DegradedReason)
		}
	})
}

// TestReplicaEpochReconcile is the routed-write half: a write fault on one
// replica leaves it epoch-lagged; the router quarantines it from reads
// (answers stay byte-identical to the monolith), keeps accepting writes on
// the surviving replica, and once the store heals the next commit copies
// the sibling's store into the straggler's and rejoins it.
func TestReplicaEpochReconcile(t *testing.T) {
	doc := corpusDoc(t, 24, 9)
	faults := [][]*storage.Faults{{nil, {}}, {nil, nil}}
	r := memReplicatedRouter(t, 24, 9, 2, 2, &Options{Live: true}, faults)
	srv := server.New(r, server.Config{})
	mono := core.NewFromDocument(doc, nil)
	monoSrv := server.New(mono, server.Config{})

	parts := doc.Partitions()
	frag := "<paper><title>replica reconcile probe</title></paper>"
	apply := func(i int) {
		t.Helper()
		b := &mutate.Batch{Ops: []mutate.Op{{Kind: mutate.OpInsert, Parent: parts[0].ID, XML: frag}}}
		if _, err := mono.Apply(b); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Apply(b); err != nil {
			t.Fatalf("routed apply %d: %v", i, err)
		}
	}

	// Break replica 1 of shard 0 for writes, then commit twice: both land
	// on replica 0 only, replica 1 falls two epochs behind.
	faults[0][1].FailWrites(1)
	apply(1)
	apply(2)

	if got := r.m.quarantines.Value(); got != 1 {
		t.Errorf("quarantines = %d, want 1 (quarantined once, stays quarantined)", got)
	}
	var lagged *core.ReplicaStatus
	for _, row := range r.ReplicaTable() {
		if row.Shard == 0 && row.Replica == 1 {
			row := row
			lagged = &row
		}
	}
	if lagged == nil || lagged.State != StateQuarantined || lagged.EpochLag != 2 {
		t.Fatalf("shard 0 replica 1 = %+v, want quarantined with epoch lag 2", lagged)
	}

	// Reads while quarantined: byte-identical to the post-update monolith —
	// the lagged replica serves nothing.
	for _, q := range diffQueries[:2] {
		want := fetchSearch(t, monoSrv, q, 1, 3)
		if got := fetchSearch(t, srv, q, 2, 3); got != want {
			t.Fatalf("query %q diverged while a replica lagged:\n got: %s\nwant: %s", q, got, want)
		}
	}

	// Heal the store; the next commit lands on replica 0, and
	// reconciliation right after it copies replica 0's store into replica
	// 1's and rejoins it at the same epoch.
	faults[0][1].Clear()
	apply(3)
	if got := r.m.reconciles.Value(); got != 1 {
		t.Errorf("xrefine_replica_reconciles_total = %d, want 1", got)
	}
	for _, row := range r.ReplicaTable() {
		if row.Shard == 0 && (row.State != StateHealthy || row.Epoch != 3) {
			t.Errorf("shard 0 replica = %+v, want healthy at epoch 3", row)
		}
	}
	for _, q := range diffQueries[:2] {
		want := fetchSearch(t, monoSrv, q, 1, 3)
		if got := fetchSearch(t, srv, q, 2, 3); got != want {
			t.Fatalf("query %q diverged after rejoin:\n got: %s\nwant: %s", q, got, want)
		}
	}
}

// openReplicaStores opens every replica store of the directory man
// describes, with faults[shard][replica] attached when faults is non-nil.
func openReplicaStores(t *testing.T, dir string, man *Manifest, faults [][]*storage.Faults) [][]storage.Backend {
	t.Helper()
	stores := make([][]storage.Backend, len(man.Shards))
	for i, ent := range man.Shards {
		for j, rf := range ent.Files() {
			var f *storage.Faults
			if faults != nil {
				f = faults[i][j]
			}
			s, err := backends.Open(storage.KindBTree, filepath.Join(dir, rf.Store), &storage.Options{Faults: f})
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = append(stores[i], s)
		}
	}
	return stores
}

func closeStores(stores [][]storage.Backend) {
	for _, grp := range stores {
		for _, s := range grp {
			s.Close()
		}
	}
}

// keySpace returns s's whole key space, key to value.
func keySpace(t *testing.T, s storage.Backend) map[string]string {
	t.Helper()
	kv := make(map[string]string)
	if err := s.Range(nil, nil, func(k, v []byte) bool {
		kv[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return kv
}

// TestReplicaLagQuarantinedAtOpen is the restart half of epoch
// reconciliation: a replica that refused two commits is still behind when
// a new router opens over the same stores. The new router must find the
// lag from the store epochs, quarantine the replica, and catch it up from
// its sibling's store before serving: afterwards both stores hold the same
// keys at the same epoch, a third open finds nothing to quarantine, and
// every query answers like the monolith, including queries for the term
// the refused commits inserted.
func TestReplicaLagQuarantinedAtOpen(t *testing.T) {
	t.Run("btree", func(t *testing.T) {
		doc := corpusDoc(t, 24, 9)
		dir := t.TempDir()
		man, err := WriteReplicatedStores(doc, dir, 2, ModeRange, 2)
		if err != nil {
			t.Fatal(err)
		}
		mono := core.NewFromDocument(doc, nil)
		monoSrv := server.New(mono, server.Config{})
		faults := [][]*storage.Faults{{nil, {}}, {nil, nil}}
		stores := openReplicaStores(t, dir, man, faults)
		before, err := NewReplicated(stores, &Options{Live: true})
		if err != nil {
			t.Fatal(err)
		}
		faults[0][1].FailWrites(1)
		parts := doc.Partitions()
		for i := 0; i < 2; i++ {
			b := &mutate.Batch{Ops: []mutate.Op{{Kind: mutate.OpInsert, Parent: parts[0].ID,
				XML: "<paper><title>restart lag probe</title></paper>"}}}
			if _, err := mono.Apply(b); err != nil {
				t.Fatal(err)
			}
			if _, err := before.Apply(b); err != nil {
				t.Fatalf("routed apply %d: %v", i, err)
			}
		}
		closeStores(stores)

		// answersMatch checks every query, over several rounds so read
		// selection tries every replica it would serve from.
		answersMatch := func(r *Router, when string) {
			t.Helper()
			srv := server.New(r, server.Config{})
			for _, q := range append([]string{"restart lag probe", "restart"}, diffQueries...) {
				want := fetchSearch(t, monoSrv, q, 1, 3)
				for i := 0; i < 4; i++ {
					if got := fetchSearch(t, srv, q, 2, 3); got != want {
						t.Fatalf("q=%q round %d diverged %s:\n got: %s\nwant: %s", q, i, when, got, want)
					}
				}
			}
		}

		stores = openReplicaStores(t, dir, man, nil)
		r, err := NewReplicated(stores, &Options{Live: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range r.ReplicaTable() {
			if row.State != StateHealthy || row.EpochLag != 0 {
				t.Errorf("reopened replica %+v, want healthy at epoch lag 0", row)
			}
		}
		if got := r.m.quarantines.Value(); got != 1 {
			t.Errorf("xrefine_replica_quarantines_total = %d, want 1", got)
		}
		evs := r.flight.Events(obs.EventFilter{Kind: obs.EvQuarantine})
		if len(evs) != 1 || evs[0].Shard != 0 || evs[0].Replica != 1 || evs[0].N != 2 || evs[0].Note != "epoch-lag" {
			t.Errorf("quarantine events = %+v, want one epoch-lag event for shard 0 replica 1 at lag 2", evs)
		}
		if got := r.m.reconciles.Value(); got != 1 {
			t.Errorf("xrefine_replica_reconciles_total = %d, want 1", got)
		}
		evs = r.flight.Events(obs.EventFilter{Kind: obs.EvReconcile})
		if len(evs) != 1 || evs[0].Shard != 0 || evs[0].Replica != 1 || evs[0].N != 2 {
			t.Errorf("reconcile events = %+v, want one for shard 0 replica 1 at epoch 2", evs)
		}
		lagged, sibling := stores[0][1], stores[0][0]
		if !maps.Equal(keySpace(t, lagged), keySpace(t, sibling)) {
			t.Error("caught-up store's key space differs from its sibling's")
		}
		if lagged.Epoch() != sibling.Epoch() {
			t.Errorf("caught-up store epoch = %d, sibling's = %d", lagged.Epoch(), sibling.Epoch())
		}
		answersMatch(r, "after restart")
		closeStores(stores)

		stores = openReplicaStores(t, dir, man, nil)
		defer closeStores(stores)
		third, err := NewReplicated(stores, &Options{Live: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := third.m.quarantines.Value(); got != 0 {
			t.Errorf("third open quarantined %d replicas, want 0", got)
		}
		answersMatch(third, "after a second restart")
	})
}

// insertUnder returns a one-op batch inserting frag under parent.
func insertUnder(parent []uint32, frag string) *mutate.Batch {
	return &mutate.Batch{Ops: []mutate.Op{{Kind: mutate.OpInsert, Parent: parent, XML: frag}}}
}

// TestReplicaCatchUpBeyondOldWindow: a replica that refused more commits
// than a bounded in-memory batch log would keep still rejoins once its
// store heals. The copy from its sibling costs the same however far it
// lags.
func TestReplicaCatchUpBeyondOldWindow(t *testing.T) {
	doc := corpusDoc(t, 24, 9)
	faults := [][]*storage.Faults{{nil, {}}, {nil, nil}}
	r := memReplicatedRouter(t, 24, 9, 2, 2, &Options{Live: true}, faults)
	mono := core.NewFromDocument(doc, nil)
	parts := doc.Partitions()
	apply := func(i int) {
		t.Helper()
		b := insertUnder(parts[0].ID, "<paper><title>window probe</title></paper>")
		if _, err := mono.Apply(b); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Apply(b); err != nil {
			t.Fatalf("routed apply %d: %v", i, err)
		}
	}
	const missed = 130
	faults[0][1].FailWrites(1)
	for i := 0; i < missed; i++ {
		apply(i)
	}
	lagging := r.groups[0].reps[1]
	if !lagging.quarantined.Load() || lagging.eng.Load().Epoch() != 0 {
		t.Fatalf("replica refusing writes: quarantined=%v epoch=%d, want quarantined at 0",
			lagging.quarantined.Load(), lagging.eng.Load().Epoch())
	}
	faults[0][1].Clear()
	apply(missed)
	for _, row := range r.ReplicaTable() {
		if row.Shard == 0 && (row.State != StateHealthy || row.Epoch != missed+1) {
			t.Errorf("shard 0 replica = %+v, want healthy at epoch %d", row, missed+1)
		}
	}
	srv, monoSrv := server.New(r, server.Config{}), server.New(mono, server.Config{})
	for _, q := range append([]string{"window probe"}, diffQueries...) {
		want := fetchSearch(t, monoSrv, q, 1, 3)
		for i := 0; i < 2; i++ {
			if got := fetchSearch(t, srv, q, 2, 3); got != want {
				t.Fatalf("q=%q round %d diverged after rejoin:\n got: %s\nwant: %s", q, i, got, want)
			}
		}
	}
}

// TestReplicaCatchUpSafety covers the two ways copying a store into a
// lagging replica could go wrong: a reader pinned to the replica's old
// index paging in a list of another epoch from the rewritten store, and a
// failed copy leaving the store half-written.
func TestReplicaCatchUpSafety(t *testing.T) {
	doc := corpusDoc(t, 24, 9)
	parts := doc.Partitions()

	t.Run("pinned-reader", func(t *testing.T) {
		faults := [][]*storage.Faults{{nil, {}}, {nil, nil}}
		r := memReplicatedRouter(t, 24, 9, 2, 2, &Options{Live: true}, faults)
		lagging := r.groups[0].reps[1]
		// Replica 1 fails every read and write: it refuses the first
		// commit, and each catch-up attempt aborts at its first list load,
		// so no list the second commit changes is paged in.
		faults[0][1].FailReads(1)
		faults[0][1].FailWrites(1)
		lagging.store.DropCaches()
		const term = "database"
		for i, frag := range []string{
			"<paper><title>pinned probe</title></paper>",
			"<paper><title>" + term + "</title></paper>",
		} {
			if _, err := r.Apply(insertUnder(parts[0].ID, frag)); err != nil {
				t.Fatalf("routed apply %d: %v", i, err)
			}
		}
		old := lagging.eng.Load().Index()
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := old.ListCtxInfo(cancelled, term); err == nil {
			t.Fatalf("list %q already resident; the test needs it unloaded", term)
		}
		faults[0][1].Clear()
		if _, err := r.Apply(insertUnder(parts[0].ID, "<paper><title>pinned probe</title></paper>")); err != nil {
			t.Fatal(err)
		}
		if lagging.quarantined.Load() {
			t.Fatal("healed replica did not rejoin")
		}
		l, err := old.List(term)
		if err != nil {
			t.Fatal(err)
		}
		if l.Len() != old.ListLen(term) {
			t.Errorf("pinned index loaded %d postings of %q after the copy, its own epoch has %d",
				l.Len(), term, old.ListLen(term))
		}
	})

	t.Run("failed-copy/btree", func(t *testing.T) {
		dir := t.TempDir()
		man, err := WriteReplicatedStores(doc, dir, 2, ModeRange, 2)
		if err != nil {
			t.Fatal(err)
		}
		faults := [][]*storage.Faults{{nil, {}}, {nil, nil}}
		stores := openReplicaStores(t, dir, man, faults)
		defer closeStores(stores)
		r, err := NewReplicated(stores, &Options{Live: true})
		if err != nil {
			t.Fatal(err)
		}
		faults[0][1].FailWrites(1)
		if _, err := r.Apply(insertUnder(parts[0].ID, "<paper><title>failed copy</title></paper>")); err != nil {
			t.Fatal(err)
		}
		// One more attempt, explicitly, and it must reach the store.
		injected := faults[0][1].Injected()
		r.applyMu.Lock()
		r.reconcileLocked(0)
		r.applyMu.Unlock()
		if faults[0][1].Injected() == injected {
			t.Fatal("catch-up attempt never wrote to the faulted store")
		}
		lagging := r.groups[0].reps[1]
		if !lagging.quarantined.Load() || r.m.reconciles.Value() != 0 {
			t.Errorf("failed copy: quarantined=%v reconciles=%d, want quarantined and 0",
				lagging.quarantined.Load(), r.m.reconciles.Value())
		}
		if e := lagging.store.Epoch(); e != 0 {
			t.Errorf("failed copy moved the store epoch to %d, want 0", e)
		}
		closeStores(stores)
		s, err := backends.Open(storage.KindBTree, filepath.Join(dir, man.Shards[0].Replicas[0].Store), nil)
		if err != nil {
			t.Fatalf("store unopenable after a failed copy: %v", err)
		}
		defer s.Close()
		if e := s.Epoch(); e != 0 {
			t.Errorf("reopened store epoch = %d, want 0", e)
		}
	})
}

// TestReplicaWriteRejectionNoQuarantine: a batch that no replica accepts
// (bad target) is the caller's error — it advances no epoch and must not
// quarantine anything.
func TestReplicaWriteRejectionNoQuarantine(t *testing.T) {
	r := memReplicatedRouter(t, 24, 9, 2, 2, &Options{Live: true}, nil)
	bad := &mutate.Batch{Ops: []mutate.Op{{Kind: mutate.OpInsert, Parent: []uint32{0, 2}, XML: "<unclosed"}}}
	if _, err := r.Apply(bad); err == nil {
		t.Fatal("malformed batch accepted")
	}
	for _, row := range r.ReplicaTable() {
		if row.State != StateHealthy || row.EpochLag != 0 {
			t.Errorf("replica %+v unhealthy after a rejected batch", row)
		}
	}
	if got := r.m.quarantines.Value(); got != 0 {
		t.Errorf("quarantines = %d after a rejected batch, want 0", got)
	}
}

// TestReplicaHedgeCancelPromptness stresses the hedge race under the race
// detector: many queries against a slow primary with an aggressive hedge
// delay must neither leak loser goroutines nor corrupt shared state, and
// every response must match the monolith.
func TestReplicaHedgeCancelPromptness(t *testing.T) {
	doc := corpusDoc(t, 24, 3)
	mono := server.New(core.NewFromDocument(doc, nil), server.Config{})
	want := fetchSearch(t, mono, "database query", 1, 3)
	faults := [][]*storage.Faults{{{}, nil}, {{}, nil}}
	r := memReplicatedRouter(t, 24, 3, 2, 2, &Options{HedgeAfter: 50 * time.Microsecond}, faults)
	srv := server.New(r, server.Config{})
	for i := range faults {
		faults[i][0].ReadLatency = time.Millisecond
		r.groups[i].reps[0].store.DropCaches()
	}
	base := runtime.NumGoroutine()
	done := make(chan string, 8)
	const clients, rounds = 4, 8
	for c := 0; c < clients; c++ {
		go func() {
			for i := 0; i < rounds; i++ {
				done <- fetchSearchQuiet(srv, "database query", 2, 3)
			}
		}()
	}
	for i := 0; i < clients*rounds; i++ {
		if got := <-done; got != want {
			t.Fatalf("hedged query diverged:\n got: %s\nwant: %s", got, want)
		}
	}
	// Losers must unwind promptly once cancelled: the goroutine count
	// settles back near the pre-stress baseline.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+clients+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d baseline — hedge losers leaked",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if r.m.hedges.Value() == 0 {
		t.Error("stress run fired no hedges; the race was never exercised")
	}
}

// TestReplicatedStoreLayout checks the on-disk replicated format round
// trip: WriteReplicatedStores emits R stores per shard, Open honors the
// Replicas bound, and a live replicated directory serves and accepts
// writes. An older manifest, whose replicas also name a write-ahead log
// file, opens and applies the same way and gains no .wal file.
func TestReplicatedStoreLayout(t *testing.T) {
	for _, walKeys := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal-keys=%v", walKeys), func(t *testing.T) {
			doc := corpusDoc(t, 24, 7)
			dir := t.TempDir()
			man, err := WriteReplicatedStores(doc, dir, 2, ModeRange, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(man.Shards) != 2 {
				t.Fatalf("manifest shards = %d, want 2", len(man.Shards))
			}
			for i, ent := range man.Shards {
				if len(ent.Replicas) != 2 {
					t.Fatalf("shard %d extra replicas = %d, want 2", i, len(ent.Replicas))
				}
			}
			if walKeys {
				addWALKeys(t, dir)
			}

			full, err := Open(dir, &Options{Live: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := full.Replicas(); got != 3 {
				t.Errorf("Open attached %d replicas, want 3", got)
			}
			if rows := full.ReplicaTable(); len(rows) != 6 {
				t.Errorf("replica table rows = %d, want 6", len(rows))
			}
			parts := doc.Partitions()
			b := &mutate.Batch{Ops: []mutate.Op{{Kind: mutate.OpInsert, Parent: parts[0].ID,
				XML: "<paper><title>layout probe</title></paper>"}}}
			if _, err := full.Apply(b); err != nil {
				t.Fatal(err)
			}
			full.Close()
			if wals, _ := filepath.Glob(filepath.Join(dir, "*.wal")); len(wals) != 0 {
				t.Errorf("live apply wrote log files %v; the store commit is the only durable write", wals)
			}

			// Reopened bounded to the primary only, the directory still serves
			// and the committed epoch is visible.
			one, err := Open(dir, &Options{Replicas: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer one.Close()
			if got := one.Replicas(); got != 1 {
				t.Errorf("Open -replicas 1 attached %d replicas, want 1", got)
			}
			if got := one.ShardEpochs()[0]; got != 1 {
				t.Errorf("reopened shard 0 epoch = %d, want 1", got)
			}
			if _, err := one.QueryTermsCtx(nil, []string{"layout", "probe"}, core.StrategyPartition, 3, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// addWALKeys rewrites dir's manifest the way older releases wrote it, with
// a "wal" file name beside every replica's store.
func addWALKeys(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Version int              `json:"version"`
		Mode    string           `json:"mode"`
		Shards  []map[string]any `json:"shards"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for i, ent := range m.Shards {
		ent["wal"] = fmt.Sprintf("shard-%d.wal", i)
		for j, rf := range ent["replicas"].([]any) {
			rf.(map[string]any)["wal"] = fmt.Sprintf("shard-%d.r%d.wal", i, j+1)
		}
	}
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// fetchSearchQuiet is fetchSearch without the testing.T plumbing, for use
// inside stress goroutines (t.Fatal must not be called off the test
// goroutine); a non-200 body diverges from `want` and fails the compare.
func fetchSearchQuiet(h http.Handler, q string, parallel, k int) string {
	v := url.Values{"q": {q}, "k": {fmt.Sprint(k)}, "parallel": {fmt.Sprint(parallel)}}
	req := httptest.NewRequest(http.MethodGet, "/search?"+v.Encode(), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Body.String()
}

func TestParseChaos(t *testing.T) {
	c, err := ParseChaos("rate=0.01,jitter=200us-1ms,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if c.Rate != 0.01 || c.JitterMin != 200*time.Microsecond || c.JitterMax != time.Millisecond || c.Seed != 7 {
		t.Errorf("parsed %+v", c)
	}
	c, err = ParseChaos("jitter=2ms")
	if err != nil {
		t.Fatal(err)
	}
	if c.JitterMin != 0 || c.JitterMax != 2*time.Millisecond {
		t.Errorf("single-value jitter parsed %+v", c)
	}
	for _, bad := range []string{
		"",               // arms nothing
		"rate=0",         // arms nothing
		"rate=1.5",       // out of range
		"rate=x",         // not a float
		"jitter=5ms-1ms", // inverted range
		"jitter=zzz",     // not a duration
		"seed=-1",        // not a uint
		"flaky",          // not key=value
		"explode=always", // unknown key
	} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) accepted", bad)
		}
	}
}

func TestChaosArm(t *testing.T) {
	c := &Chaos{Rate: 1} // every page IO fails
	f := &storage.Faults{}
	c.arm(f, 0, 1)
	s := kvstore.NewMemWithFaults(f)
	defer s.Close()
	doc := corpusDoc(t, 8, 3)
	eng := core.NewFromDocument(doc, &core.Config{DisableMetrics: true})
	if err := eng.SaveIndexWithDocument(s); err == nil {
		t.Error("rate=1 chaos let a write through")
	}
	// Nil spec and nil fault set are both no-ops, matching an unchaosed Open.
	(*Chaos)(nil).arm(f, 0, 0)
	c.arm(nil, 0, 0)
}
