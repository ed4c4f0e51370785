package kvstore

import "xrefine/internal/storage"

// This file is the B+tree store's storage.Backend surface: the handful of
// methods the pluggable-engine interface needs beyond the original kvstore
// API. *Store satisfies storage.Backend directly — no adapter — so every
// existing *kvstore.Store value can flow into backend-typed code as-is.

var _ storage.Backend = (*Store)(nil)

// Kind names the engine: "btree".
func (s *Store) Kind() storage.Kind { return storage.KindBTree }

// Checkpoint commits pending changes. The copy-on-write design reuses
// freed pages on the next commit, so there is no separate fold step; the
// offline CompactTo rewrite exists for reclaiming file size, but a
// checkpoint must be safe to run inline under live load, which Commit is.
func (s *Store) Checkpoint() error { return s.Commit() }

// StorageStats returns the engine-generic statistics snapshot.
func (s *Store) StorageStats() storage.Stats {
	st := s.Stats()
	return storage.Stats{
		Kind:      storage.KindBTree,
		Keys:      st.Keys,
		DiskBytes: st.FileSize,
		Txid:      st.Txid,
		Epoch:     st.Epoch,
		Pages:     st.Pages,
		FreePages: st.FreePages,
		PageSize:  st.PageSize,
	}
}
