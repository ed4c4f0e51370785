package core

import (
	"path/filepath"
	"testing"

	"xrefine/internal/dewey"
	"xrefine/internal/mutate"
	"xrefine/internal/storage"
	"xrefine/internal/storage/backends"
	"xrefine/internal/xmltree"
)

// seedLiveStoreKind is seedLiveStore on an explicit storage engine: a
// .kv page file for the B+tree, a segment directory for the log engine.
func seedLiveStoreKind(t *testing.T, xml string, kind storage.Kind) (string, string) {
	t.Helper()
	dir := t.TempDir()
	name := "ix.kv"
	if kind == storage.KindLog {
		name = "ix.logdb"
	}
	path := filepath.Join(dir, name)
	wal := filepath.Join(dir, "ix.wal")
	doc, err := xmltree.ParseString(xml, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := backends.Open(kind, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := NewFromDocument(doc, nil)
	if err := e.SaveIndexWithDocument(store); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return path, wal
}

// TestCheckpointTruncatesWALAndBoundsReopen is the bounded-reopen claim
// `make soak` leans on: after N applied epochs and one Checkpoint, the
// WAL is empty (nothing to replay) and — on the log engine — the store's
// durable state is compacted with hint files covering every sealed
// segment, so a reopen pays hint loads plus at most the active segment's
// scan instead of replaying N epochs of log. Query output must survive
// the whole cycle byte-identically.
func TestCheckpointTruncatesWALAndBoundsReopen(t *testing.T) {
	for _, kind := range []storage.Kind{storage.KindBTree, storage.KindLog} {
		t.Run(string(kind), func(t *testing.T) {
			path, wal := seedLiveStoreKind(t, applyBaseXML, kind)
			store, err := backends.Open(kind, path, nil)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := OpenLive(store, wal, nil)
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
			if n := eng.UpdateStats().WALSizeBytes; n != 0 {
				t.Fatalf("WAL holds %d bytes after checkpoint, want 0", n)
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
			if err := eng.Close(); err != nil {
				t.Fatal(err)
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
			re, err := OpenLive(store2, wal, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if n := counter(re, "xrefine_mutate_replayed_batches_total"); n != 0 {
				t.Fatalf("reopen replayed %d WAL batches after checkpoint", n)
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
