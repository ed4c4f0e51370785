package kvstore

import "xrefine/internal/storage"

// *Store satisfies storage.Backend directly — no adapter — so every
// *kvstore.Store value can flow into backend-typed code as-is.
var _ storage.Backend = (*Store)(nil)

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
