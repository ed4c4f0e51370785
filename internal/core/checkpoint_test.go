package core

import (
	"testing"

	"xrefine/internal/dewey"
	"xrefine/internal/mutate"
	"xrefine/internal/storage"
	"xrefine/internal/storage/backends"
)

// TestCheckpointBoundsReopen is the bounded-reopen claim `make soak` leans
// on: after N applied epochs and one Checkpoint, the log engine's durable
// state is compacted with hint files covering every sealed segment, so a
// reopen pays hint loads plus at most the active segment's scan instead of
// reading N epochs of log. Query output must survive the whole cycle
// byte-identically.
func TestCheckpointBoundsReopen(t *testing.T) {
	for _, kind := range []storage.Kind{storage.KindBTree, storage.KindLog} {
		t.Run(string(kind), func(t *testing.T) {
			path := seedLiveStore(t, applyBaseDoc(t), kind)
			store, err := backends.Open(kind, path, nil)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := OpenLive(store, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			const epochs = 6
			for i := 0; i < epochs; i++ {
				b := &mutate.Batch{Ops: []mutate.Op{{
					Kind: mutate.OpInsert, Parent: dewey.Root(),
					XML: `<paper><title>checkpointed keyword churn</title></paper>`,
				}}}
				if _, err := eng.Apply(b); err != nil {
					t.Fatalf("apply %d: %v", i, err)
				}
			}
			want := applySigs(t, eng, applyQueries)

			if err := eng.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if kind == storage.KindLog {
				st := store.StorageStats()
				if st.Compactions < 1 {
					t.Fatalf("checkpoint ran no compaction: %+v", st)
				}
				if amp := st.Amplification(); amp >= 2 {
					t.Fatalf("amplification %.2f after checkpoint, want < 2", amp)
				}
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}

			store2, err := backends.Open(kind, path, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer store2.Close()
			if kind == storage.KindLog {
				// The bounded-reopen property itself: every sealed segment
				// came back through its hint file; only the active segment
				// may need a scan.
				st := store2.StorageStats()
				if st.HintLoads < 1 {
					t.Fatalf("reopen used no hint files: %+v", st)
				}
				if st.ScanLoads > 1 {
					t.Fatalf("reopen scanned %d segments, want <= 1 (active only)", st.ScanLoads)
				}
			}
			re, err := OpenLive(store2, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			if re.Epoch() != epochs {
				t.Fatalf("reopened at epoch %d, want %d", re.Epoch(), epochs)
			}
			got := applySigs(t, re, applyQueries)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("query %v changed across checkpoint+reopen", applyQueries[i])
				}
			}
		})
	}
}
