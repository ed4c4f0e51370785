package core

import (
	"runtime"
	"testing"

	"xrefine/internal/datagen"
)

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestAppliedEpochsAreCollected: every applied batch swaps in a new epoch
// index, and once no query pins the old one it must be collectable together
// with what rule generation derived from it (the sorted vocabulary and the
// stem map). A process-global cache keyed by index once kept every dead epoch
// alive; live heap then grew by tens of megabytes over this run.
func TestAppliedEpochsAreCollected(t *testing.T) {
	if testing.Short() {
		t.Skip("200 applied batches")
	}
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	batches, err := datagen.Updates(doc, datagen.UpdatesConfig{Batches: 200, Ops: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := NewFromDocument(doc, nil)
	var at50 uint64
	for i, b := range batches {
		if _, err := e.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		// A misspelling, so rule generation sorts the epoch's vocabulary.
		if _, err := query(e, "online databse"); err != nil {
			t.Fatal(err)
		}
		if i+1 == 50 {
			at50 = liveHeap()
		}
	}
	at200 := liveHeap()
	const slack = 5 << 20
	if at200 > at50+slack {
		t.Errorf("live heap grew %.1f MB from batch 50 (%.1f MB) to batch 200 (%.1f MB); dead epochs are being retained",
			float64(at200-at50)/(1<<20), float64(at50)/(1<<20), float64(at200)/(1<<20))
	}
}
