package core

import (
	"errors"
	"fmt"

	"xrefine/internal/index"
	"xrefine/internal/mutate"
	"xrefine/internal/obs"
	"xrefine/internal/storage"
	"xrefine/internal/xmltree"
)

// This file is the engine half of live index maintenance. The update path
// composes internal/mutate's primitives into atomic epoch commits:
//
//	Stage (clone + delta)  →  WAL append  →  store commit  →  publish
//
// A batch is staged against the current epoch's document and index clone,
// durably logged, persisted inside one copy-on-write store commit (index
// delta, rewritten document stream and the bumped epoch number all land
// together), and only then published to readers with a single pointer
// swap. A crash at any point leaves either the old epoch (WAL record
// incomplete or store commit torn — both detected and discarded on open)
// or the new one (commit durable; the leftover WAL record is skipped
// because its sequence number is no longer ahead of the store's epoch).

// liveState is the durable half of a live engine: the backing store and
// the write-ahead log. Engines without it (in-memory construction) still
// accept Apply — epochs advance without persistence.
type liveState struct {
	store  storage.Backend
	wal    *mutate.WAL
	broken bool // a rollback failed; the open store is untrustworthy
}

// ErrReadOnly is returned by Apply on a store-backed engine that was
// opened without live-update support (Open rather than OpenLive): its
// published snapshot must never diverge from the store it serves.
var ErrReadOnly = errors.New("core: engine serves a read-only index snapshot; reopen with OpenLive to apply updates")

// ApplyResult reports one committed update batch.
type ApplyResult struct {
	// Epoch is the generation the batch produced.
	Epoch uint64 `json:"epoch"`
	// InsertOps and DeleteOps count the batch's operations by kind.
	InsertOps int `json:"insert_ops"`
	DeleteOps int `json:"delete_ops"`
	// Inserted and Deleted count document nodes added and removed.
	Inserted int `json:"nodes_inserted"`
	Deleted  int `json:"nodes_deleted"`
	// WALBytes is the size of the durably logged record (0 for in-memory
	// engines and for replayed batches, which were already logged).
	WALBytes int64 `json:"wal_bytes,omitempty"`
	// Replayed marks a batch re-applied from the WAL during recovery.
	Replayed bool `json:"replayed,omitempty"`
}

// Apply stages, persists and publishes one update batch as the next
// epoch. The batch is atomic: any failing op rejects all of it and the
// engine keeps serving the current epoch. Queries already running keep
// their pinned snapshot; queries starting after Apply returns see the new
// one. Writers are serialized; readers are never blocked.
//
// On a live engine the batch is WAL-logged before the store commit, so a
// crash between the two replays it on the next OpenLive. In-memory
// engines (NewFromDocument and friends) update only the published epoch.
func (e *Engine) Apply(b *mutate.Batch) (*ApplyResult, error) {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	return e.applyLocked(b, false)
}

// applyLocked runs one batch through the commit protocol. replay marks a
// batch re-read from the WAL: it is already durably logged, so the append
// and the post-commit log reset are skipped (later records still need
// scanning).
func (e *Engine) applyLocked(b *mutate.Batch, replay bool) (*ApplyResult, error) {
	if e.live == nil && e.frozen {
		return nil, ErrReadOnly
	}
	if e.live != nil && e.live.broken {
		return nil, errors.New("core: store left inconsistent by a failed rollback; reopen the engine")
	}
	cur := e.ep.Load()
	staged, err := mutate.Stage(cur.doc, cur.ix, b)
	if err != nil {
		return nil, err
	}
	next := cur.gen + 1
	res := &ApplyResult{
		Epoch:     next,
		InsertOps: staged.InsertOps,
		DeleteOps: staged.DeleteOps,
		Inserted:  staged.Inserted,
		Deleted:   staged.Deleted,
		Replayed:  replay,
	}
	if e.live != nil {
		if !replay {
			n, err := e.live.wal.Append(next, b.Encode())
			if err != nil {
				return nil, fmt.Errorf("core: wal append: %w", err)
			}
			res.WALBytes = n
			e.m.walBytes.Add(n)
		}
		if err := e.commitEpoch(staged, next); err != nil {
			return nil, err
		}
	}
	e.ep.Store(&epoch{ix: staged.Ix, doc: staged.Doc, gen: next})
	if e.live != nil && !replay {
		// Best-effort: a record that outlives its commit is harmless —
		// replay skips sequence numbers the store has already reached.
		_ = e.live.wal.Reset()
	}
	e.countApplied(res)
	if e.live != nil {
		e.flight.Record(obs.Event{Kind: obs.EvWALCommit, Shard: -1, Replica: -1, N: int64(next)})
	}
	return res, nil
}

// countApplied counts one committed batch on the engine's registry.
func (e *Engine) countApplied(res *ApplyResult) {
	e.m.appliedBatches.Inc()
	e.m.appliedOps.With("insert").Add(int64(res.InsertOps))
	e.m.appliedOps.With("delete").Add(int64(res.DeleteOps))
}

// Publish makes ix the engine's current epoch under generation gen, for
// data that changed outside the engine, and counts res (when non-nil) as
// one committed batch on the engine's own handles. It is how a shard
// router's meta engine takes on the commit of the shard that applied a
// batch: the meta engine's epoch and applied-batch counters are then the
// router's, once, on the router's registry.
func (e *Engine) Publish(ix *index.Index, gen uint64, res *ApplyResult) {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	e.ep.Store(&epoch{ix: ix, gen: gen})
	if res != nil {
		e.countApplied(res)
	}
}

// commitEpoch persists one staged epoch inside a single store commit: the
// index delta, the rewritten document stream and the new epoch number.
// Any failure rolls the store back to the last committed epoch; if the
// rollback itself fails the live state is marked broken and every later
// Apply is refused.
func (e *Engine) commitEpoch(staged *mutate.StageResult, next uint64) error {
	s := e.live.store
	err := func() error {
		if err := staged.Mut.SaveDelta(s); err != nil {
			return err
		}
		lo, hi := xmltree.DocChunkBounds()
		if _, err := s.DeleteRange(lo, hi); err != nil {
			return err
		}
		if err := xmltree.SaveDocument(staged.Doc, s); err != nil {
			return err
		}
		if err := s.SetEpoch(next); err != nil {
			return err
		}
		return s.Commit()
	}()
	if err == nil {
		return nil
	}
	if rbErr := s.Rollback(); rbErr != nil {
		e.live.broken = true
		return fmt.Errorf("core: commit epoch %d: %w (rollback also failed: %v)", next, err, rbErr)
	}
	return fmt.Errorf("core: commit epoch %d: %w", next, err)
}

// Checkpoint folds the engine's durable state. The backing store
// checkpoints (the log engine seals its active segment, merges dead
// records away and writes hint files; the B+tree engine commits — its
// copy-on-write design reuses freed pages already) and the write-ahead
// log truncates: every batch it held is inside the store's committed
// state, so replaying it would be wasted work. After a checkpoint a
// reopen pays hint-file loads plus zero WAL replay — the property that
// bounds reopen time on a long-lived live store no matter how many
// epochs it has absorbed. No-op on engines without live state.
func (e *Engine) Checkpoint() error {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	if e.live == nil {
		return nil
	}
	if err := e.live.store.Checkpoint(); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := e.live.wal.Reset(); err != nil {
		return fmt.Errorf("core: checkpoint: wal truncate: %w", err)
	}
	return nil
}

// OpenLive is Open plus live-update support: it attaches the write-ahead
// log at walPath (created if absent) and replays any batch the log holds
// beyond the store's committed epoch — the recovery path after a crash
// between WAL append and store commit. The store must carry the source
// document (written with SaveIndexWithDocument); updates mutate the tree,
// so index-only stores cannot be updated live. The caller still owns
// closing the store; the engine owns the WAL (Close releases it).
func OpenLive(store storage.Backend, walPath string, cfg *Config) (*Engine, error) {
	return openLive(store, walPath, nil, cfg)
}

// OpenLiveShared is OpenLive against a shared type registry (see
// OpenShared): the shard router opens live shards through here so fragment
// types minted by updates intern into the corpus-wide registry.
func OpenLiveShared(store storage.Backend, walPath string, reg *xmltree.Registry, cfg *Config) (*Engine, error) {
	if reg == nil {
		return nil, errors.New("core: OpenLiveShared needs a registry")
	}
	return openLive(store, walPath, reg, cfg)
}

func openLive(store storage.Backend, walPath string, reg *xmltree.Registry, cfg *Config) (*Engine, error) {
	e, err := openStore(store, reg, cfg)
	if err != nil {
		return nil, err
	}
	if e.Document() == nil {
		return nil, errors.New("core: live updates need the stored document (save with SaveIndexWithDocument)")
	}
	w, err := mutate.OpenWAL(walPath)
	if err != nil {
		return nil, err
	}
	e.live = &liveState{store: store, wal: w}
	e.frozen = false
	replayed := 0
	err = w.Replay(store.Epoch(), func(seq uint64, payload []byte) error {
		if want := e.Epoch() + 1; seq != want {
			return fmt.Errorf("core: wal replay: record for epoch %d, want %d", seq, want)
		}
		b, err := mutate.DecodeBatch(payload)
		if err != nil {
			return fmt.Errorf("core: wal replay: %w", err)
		}
		if _, err := e.applyLocked(b, true); err != nil {
			return fmt.Errorf("core: wal replay epoch %d: %w", seq, err)
		}
		replayed++
		return nil
	})
	if err != nil {
		w.Close()
		e.live = nil
		e.frozen = true
		return nil, err
	}
	if w.Size() > 0 {
		if err := w.Reset(); err != nil {
			w.Close()
			e.live = nil
			e.frozen = true
			return nil, err
		}
	}
	e.m.replayedBatches.Add(int64(replayed))
	return e, nil
}

// Close releases the engine's write-ahead log, if any. The backing store
// stays open — the caller that passed it to OpenLive owns it. A closed
// live engine reverts to read-only snapshot semantics: Apply is refused.
func (e *Engine) Close() error {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	if e.live == nil {
		return nil
	}
	err := e.live.wal.Close()
	e.live = nil
	e.frozen = true
	return err
}

// UpdateStats is a snapshot of the engine's live-update state. The
// update counters (applied and replayed batches, applied ops) are kept on
// the metrics registry only.
type UpdateStats struct {
	// Live reports whether the engine persists updates (OpenLive).
	Live bool
	// Epoch is the current published generation.
	Epoch uint64
	// WALSizeBytes is the current write-ahead log size (0 when idle:
	// the log is truncated after every commit).
	WALSizeBytes int64
}

// UpdateStats returns the current live-update snapshot.
func (e *Engine) UpdateStats() UpdateStats {
	u := UpdateStats{Epoch: e.Epoch()}
	e.applyMu.Lock()
	if e.live != nil {
		u.Live = true
		u.WALSizeBytes = e.live.wal.Size()
	}
	e.applyMu.Unlock()
	return u
}
