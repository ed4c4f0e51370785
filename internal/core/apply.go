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
// composes internal/mutate's staging into atomic epoch commits:
//
//	Stage (clone + delta)  →  store commit  →  publish
//
// A batch is staged against the current epoch's document and index clone,
// persisted inside one store commit (index delta, rewritten document
// stream and the bumped epoch number all land together), and only then
// published to readers with a single pointer swap. The store commit is the
// one durability point: both storage engines commit atomically (the
// B+tree through its alternate meta slot, the log engine through a
// CRC-framed commit record), so a crash at any point leaves either the old
// epoch (commit torn or never reached — discarded on open) or the new one
// (commit durable). An Apply that returns an error has rolled the store
// back, so a reopen finds nothing of the refused batch.

// liveState is the durable half of a live engine: the backing store every
// Apply commits to. Engines without it (in-memory construction) still
// accept Apply — epochs advance without persistence.
type liveState struct {
	store  storage.Backend
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
	// WALBytes is always 0: the engine keeps no write-ahead log. The field
	// remains only because the frozen bench/ module reads it.
	WALBytes int64 `json:"wal_bytes,omitempty"`
}

// Apply stages, persists and publishes one update batch as the next
// epoch. The batch is atomic: any failing op rejects all of it and the
// engine keeps serving the current epoch. Queries already running keep
// their pinned snapshot; queries starting after Apply returns see the new
// one. Writers are serialized; readers are never blocked.
//
// On a live engine a batch is durable once Apply returns it: the store
// commit is the durability point, and an Apply that returns an error
// leaves the store at the previous epoch. In-memory engines
// (NewFromDocument and friends) update only the published epoch.
func (e *Engine) Apply(b *mutate.Batch) (*ApplyResult, error) {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
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
	}
	if e.live != nil {
		if err := e.commitEpoch(staged, next); err != nil {
			return nil, err
		}
	}
	e.ep.Store(&epoch{ix: staged.Ix, doc: staged.Doc, gen: next})
	e.countApplied(res)
	if e.live != nil {
		e.flight.Record(obs.Event{Kind: obs.EvCommit, Shard: -1, Replica: -1, N: int64(next)})
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

// Checkpoint folds the backing store's durable state: the log engine
// seals its active segment, merges dead records away and writes hint
// files; the B+tree engine commits (its copy-on-write design reuses freed
// pages already). After a checkpoint a reopen pays hint-file loads — the
// property that bounds reopen time on a long-lived live store no matter
// how many epochs it has absorbed. No-op on engines without live state.
func (e *Engine) Checkpoint() error {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	if e.live == nil {
		return nil
	}
	if err := e.live.store.Checkpoint(); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// OpenLive is Open plus live-update support: every Apply commits its batch
// to store as the next epoch. The store must carry the source document
// (written with SaveIndexWithDocument); updates mutate the tree, so
// index-only stores cannot be updated live. The caller owns closing the
// store. The path argument is ignored; it remains only because the frozen
// bench/ module passes one.
func OpenLive(store storage.Backend, _ string, cfg *Config) (*Engine, error) {
	return openLive(store, nil, cfg)
}

// OpenLiveShared is OpenLive against a shared type registry (see
// OpenShared): the shard router opens live shards through here so fragment
// types minted by updates intern into the corpus-wide registry.
func OpenLiveShared(store storage.Backend, reg *xmltree.Registry, cfg *Config) (*Engine, error) {
	if reg == nil {
		return nil, errors.New("core: OpenLiveShared needs a registry")
	}
	return openLive(store, reg, cfg)
}

func openLive(store storage.Backend, reg *xmltree.Registry, cfg *Config) (*Engine, error) {
	e, err := openStore(store, reg, cfg)
	if err != nil {
		return nil, err
	}
	if e.Document() == nil {
		return nil, errors.New("core: live updates need the stored document (save with SaveIndexWithDocument)")
	}
	e.live = &liveState{store: store}
	e.frozen = false
	return e, nil
}

// Close reverts a live engine to read-only snapshot semantics: Apply is
// refused afterwards. It releases nothing — the caller that passed the
// store to OpenLive owns it — and remains only because the frozen bench/
// module calls it.
func (e *Engine) Close() error {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	if e.live != nil {
		e.live = nil
		e.frozen = true
	}
	return nil
}

// UpdateStats is a snapshot of the engine's live-update state. The
// update counters (applied batches and ops) are kept on the metrics
// registry only.
type UpdateStats struct {
	// Live reports whether the engine persists updates (OpenLive).
	Live bool
	// Epoch is the current published generation.
	Epoch uint64
}

// UpdateStats returns the current live-update snapshot.
func (e *Engine) UpdateStats() UpdateStats {
	u := UpdateStats{Epoch: e.Epoch()}
	e.applyMu.Lock()
	u.Live = e.live != nil
	e.applyMu.Unlock()
	return u
}
