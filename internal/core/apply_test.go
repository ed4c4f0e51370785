package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xrefine/internal/datagen"
	"xrefine/internal/dewey"
	"xrefine/internal/kvstore"
	"xrefine/internal/mutate"
	"xrefine/internal/storage"
	"xrefine/internal/storage/backends"
	"xrefine/internal/xmltree"
)

const applyBaseXML = `<root>
  <paper><title>xml keyword search</title><author>smith</author></paper>
  <paper><title>query refinement</title><author>jones</author></paper>
  <paper><title>stale cache sentinel</title><author>lee</author></paper>
</root>`

func applyBaseDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(applyBaseXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func applyTestEngine(t *testing.T, cfg *Config) *Engine {
	t.Helper()
	return NewFromDocument(applyBaseDoc(t), cfg)
}

// applySigs answers every query on e and returns the flattened responses —
// the differential currency of these tests.
func applySigs(t *testing.T, e *Engine, queries [][]string) []string {
	t.Helper()
	out := make([]string, len(queries))
	for i, q := range queries {
		resp, err := queryTerms(e, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = responseSig(resp)
	}
	return out
}

var applyQueries = [][]string{
	{"keyword", "search"},
	{"refinement"},
	{"sentinel"},
	{"freshly", "minted"},
}

func TestApplyAdvancesEpochAndMatchesRebuild(t *testing.T) {
	e := applyTestEngine(t, nil)
	if e.Epoch() != 0 {
		t.Fatalf("fresh engine at epoch %d", e.Epoch())
	}
	res, err := e.Apply(&mutate.Batch{Ops: []mutate.Op{
		{Kind: mutate.OpInsert, Parent: dewey.Root(), XML: `<paper><title>freshly minted keyword entry</title><author>smith</author></paper>`},
		{Kind: mutate.OpDelete, Target: dewey.ID{0, 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || e.Epoch() != 1 {
		t.Fatalf("epoch = %d/%d, want 1", res.Epoch, e.Epoch())
	}
	if res.InsertOps != 1 || res.DeleteOps != 1 || res.Inserted == 0 || res.Deleted == 0 {
		t.Fatalf("counts = %+v", res)
	}
	// The updated engine must answer exactly like an engine rebuilt from
	// scratch over the mutated document.
	rebuilt := NewFromDocument(e.Document(), nil)
	got := applySigs(t, e, applyQueries)
	want := applySigs(t, rebuilt, applyQueries)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("query %v diverged from rebuild\ngot  %s\nwant %s", applyQueries[i], got[i], want[i])
		}
	}
}

func TestApplyRejectsBadBatchAtomically(t *testing.T) {
	e := applyTestEngine(t, nil)
	before := applySigs(t, e, applyQueries)
	_, err := e.Apply(&mutate.Batch{Ops: []mutate.Op{
		{Kind: mutate.OpInsert, Parent: dewey.Root(), XML: `<paper><title>should not land</title></paper>`},
		{Kind: mutate.OpDelete, Target: dewey.ID{0, 9, 9}}, // no such node
	}})
	if err == nil {
		t.Fatal("bad batch applied without error")
	}
	if e.Epoch() != 0 {
		t.Fatalf("failed batch advanced epoch to %d", e.Epoch())
	}
	after := applySigs(t, e, applyQueries)
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("query %v changed after a rejected batch", applyQueries[i])
		}
	}
}

// TestQueryCacheDropsPreUpdateResults: a post-update query must never be
// answered from pre-update state.
func TestQueryCacheDropsPreUpdateResults(t *testing.T) {
	e := applyTestEngine(t, nil)
	q := []string{"stale", "sentinel"}
	r1, err := queryTerms(e, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r1.NeedRefine || len(r1.Queries[0].Results) == 0 {
		t.Fatalf("precondition: query unsatisfied before update: %+v", r1)
	}
	// Delete the only partition containing both terms.
	if _, err := e.Apply(&mutate.Batch{Ops: []mutate.Op{
		{Kind: mutate.OpDelete, Target: dewey.ID{0, 2}},
	}}); err != nil {
		t.Fatal(err)
	}
	r3, err := queryTerms(e, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if responseSig(r3) == responseSig(r1) {
		t.Fatal("post-update response identical to pre-update response")
	}
	want, err := queryTerms(NewFromDocument(e.Document(), nil), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if responseSig(r3) != responseSig(want) {
		t.Fatalf("post-update response diverged from rebuild\ngot  %s\nwant %s", responseSig(r3), responseSig(want))
	}
}

// seedLiveStore writes doc's index and document into a new store of the
// given engine — a .kv page file for the B+tree, a segment directory for
// the log engine — and returns its path.
func seedLiveStore(t *testing.T, doc *xmltree.Document, kind storage.Kind) string {
	t.Helper()
	name := "ix.kv"
	if kind == storage.KindLog {
		name = "ix.logdb"
	}
	path := filepath.Join(t.TempDir(), name)
	store, err := backends.Open(kind, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewFromDocument(doc, nil).SaveIndexWithDocument(store); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenLiveApplyPersistsAcrossReopen(t *testing.T) {
	path := seedLiveStore(t, applyBaseDoc(t), storage.KindBTree)
	store, err := kvstore.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := OpenLive(store, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.UpdateStats().Live {
		t.Fatal("OpenLive engine not live")
	}
	for i, b := range []*mutate.Batch{
		{Ops: []mutate.Op{{Kind: mutate.OpInsert, Parent: dewey.Root(), XML: `<paper><title>freshly minted keyword</title></paper>`}}},
		{Ops: []mutate.Op{{Kind: mutate.OpDelete, Target: dewey.ID{0, 1}}}},
	} {
		res, err := eng.Apply(b)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if res.Epoch != uint64(i+1) {
			t.Fatalf("batch %d produced epoch %d", i, res.Epoch)
		}
	}
	want := applySigs(t, eng, applyQueries)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := kvstore.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	re, err := OpenLive(store2, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.Epoch() != 2 {
		t.Fatalf("reopened at epoch %d, want 2", re.Epoch())
	}
	got := applySigs(t, re, applyQueries)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("query %v changed across reopen\ngot  %s\nwant %s", applyQueries[i], got[i], want[i])
		}
	}
	// And the persisted state matches a rebuild of the restored document.
	rebuilt := applySigs(t, NewFromDocument(re.Document(), nil), applyQueries)
	for i := range want {
		if got[i] != rebuilt[i] {
			t.Errorf("query %v diverged from rebuild after reopen", applyQueries[i])
		}
	}
}

// TestApplyCrashRecoveryMatrix arms storage failpoints during Apply, on
// both storage engines, crashes, and requires the store to reopen at the
// epoch the last Apply acknowledged, answering queries exactly as a clean
// engine at that epoch would. An Apply that returns an error leaves no
// trace on disk, even when the client retries the refused batch. Only a
// torn write, which the engine cannot see and so acknowledges, may cost
// the acknowledged batch: it reopens at epoch 1 or 2, never half-applied.
func TestApplyCrashRecoveryMatrix(t *testing.T) {
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]string{{"database", "query"}, {"epoch", "sentinel"}, {"keyword"}}
	batch1 := &mutate.Batch{Ops: []mutate.Op{
		{Kind: mutate.OpInsert, Parent: dewey.Root(), XML: `<author><name>epoch sentinel</name></author>`},
	}}
	batch2 := &mutate.Batch{Ops: []mutate.Op{
		{Kind: mutate.OpInsert, Parent: dewey.Root(), XML: `<author><name>second wave keyword</name></author>`},
		{Kind: mutate.OpDelete, Target: dewey.ID{0, 1}},
	}}
	// Shadow engines give the expected signatures for epochs 1 and 2.
	shadow := NewFromDocument(doc.Clone(), nil)
	if _, err := shadow.Apply(batch1); err != nil {
		t.Fatal(err)
	}
	sigs := map[uint64][]string{1: applySigs(t, shadow, queries)}
	if _, err := shadow.Apply(batch2); err != nil {
		t.Fatal(err)
	}
	sigs[2] = applySigs(t, shadow, queries)

	arms := []struct {
		name  string
		arm   func(f *storage.Faults)
		tries int  // Apply(batch2) calls; a refused batch is retried
		torn  bool // the disk may lie: an acknowledged batch can be lost
	}{
		{"write-fail-1", func(f *storage.Faults) { f.FailWrites(1) }, 1, false},
		{"write-fail-2", func(f *storage.Faults) { f.FailWrites(2) }, 1, false},
		{"write-fail-5", func(f *storage.Faults) { f.FailWrites(5) }, 1, false},
		{"write-fail-20", func(f *storage.Faults) { f.FailWrites(20) }, 1, false},
		{"write-fail-1-refused-twice", func(f *storage.Faults) { f.FailWrites(1) }, 2, false},
		{"torn-write-1", func(f *storage.Faults) { f.TornWrite(1) }, 1, true},
		{"torn-write-3", func(f *storage.Faults) { f.TornWrite(3) }, 1, true},
		{"torn-write-8", func(f *storage.Faults) { f.TornWrite(8) }, 1, true},
	}
	var sawFail, sawSilent int
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			for _, kind := range []storage.Kind{storage.KindBTree, storage.KindLog} {
				t.Run(string(kind), func(t *testing.T) {
					path := seedLiveStore(t, doc.Clone(), kind)
					faults := &storage.Faults{}
					store, err := backends.Open(kind, path, &storage.Options{Faults: faults})
					if err != nil {
						t.Fatal(err)
					}
					eng, err := OpenLive(store, "", nil)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := eng.Apply(batch1); err != nil {
						t.Fatalf("clean batch: %v", err)
					}
					arm.arm(faults)
					_, applyErr := eng.Apply(batch2)
					for i := 1; i < arm.tries && applyErr != nil; i++ {
						_, applyErr = eng.Apply(batch2)
					}
					lo, hi := uint64(2), uint64(2) // acknowledged over an honest disk
					switch {
					case applyErr != nil:
						sawFail++
						lo, hi = 1, 1
					case arm.tries > 1:
						t.Fatal("precondition: the batch was to be refused on every try")
					default:
						sawSilent++
						if arm.torn {
							lo = 1
						}
					}
					faults.Clear()
					// Crash: drop the process state without any graceful flush.
					store.Close()

					store2, err := backends.Open(kind, path, nil)
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					defer store2.Close()
					re, err := OpenLive(store2, "", nil)
					if err != nil {
						t.Fatalf("reopen live: %v", err)
					}
					ep := re.Epoch()
					if ep < lo || ep > hi {
						t.Fatalf("reopened at epoch %d, want %d..%d (Apply error: %v)", ep, lo, hi, applyErr)
					}
					want := sigs[ep]
					got := applySigs(t, re, queries)
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("epoch %d query %v diverged from clean engine\ngot  %s\nwant %s",
								ep, queries[i], got[i], want[i])
						}
					}
				})
			}
		})
	}
	if sawFail == 0 || sawSilent == 0 {
		t.Fatalf("matrix lost an outcome class: failed=%d silent=%d", sawFail, sawSilent)
	}
}

// TestQueriesPinEpochDuringApply races readers against a writer applying
// batches: every response must exactly match one of the per-epoch clean
// signatures — never a blend of two epochs. Run under -race this also
// proves the epoch swap is properly synchronized.
func TestQueriesPinEpochDuringApply(t *testing.T) {
	const epochs = 5
	q := []string{"keyword"}
	// Expected signature per epoch, from a sequential shadow engine.
	base, err := xmltree.ParseString(applyBaseXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	batches := make([]*mutate.Batch, epochs)
	for i := range batches {
		batches[i] = &mutate.Batch{Ops: []mutate.Op{{
			Kind:   mutate.OpInsert,
			Parent: dewey.Root(),
			XML:    fmt.Sprintf(`<paper><title>wave%d keyword entry</title></paper>`, i),
		}}}
	}
	shadow := NewFromDocument(base.Clone(), nil)
	allowed := map[string]bool{applySigs(t, shadow, [][]string{q})[0]: true}
	for _, b := range batches {
		if _, err := shadow.Apply(b); err != nil {
			t.Fatal(err)
		}
		allowed[applySigs(t, shadow, [][]string{q})[0]] = true
	}

	eng := NewFromDocument(base, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 64)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := queryTerms(eng, q, 3)
				if err != nil {
					select {
					case errs <- fmt.Sprintf("query error: %v", err):
					default:
					}
					return
				}
				if sig := responseSig(resp); !allowed[sig] {
					select {
					case errs <- fmt.Sprintf("response matches no epoch: %s", sig):
					default:
					}
					return
				}
			}
		}()
	}
	for _, b := range batches {
		if _, err := eng.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if eng.Epoch() != epochs {
		t.Fatalf("epoch %d after %d applies", eng.Epoch(), epochs)
	}
}

// TestLazyListLoadsBesideApply pages posting lists in from a B+tree store
// while Apply holds an uncommitted batch open on it. The batches only add
// new vocabulary, so every list read here is of a term no write touches —
// and must parse and carry exactly the postings the index promises. A
// store scan that lets go of the tree between steps reads the pages the
// batch is editing in place ("parse block 0: bad posting count"); under
// -race that is caught on the first overlap instead of one load in 25 000.
func TestLazyListLoadsBesideApply(t *testing.T) {
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := kvstore.Open(filepath.Join(dir, "ix.kv"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := NewFromDocument(doc, nil).SaveIndexWithDocument(store); err != nil {
		t.Fatal(err)
	}
	if err := store.Commit(); err != nil {
		t.Fatal(err)
	}
	eng, err := OpenLive(store, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each reader pages every list in through an index of its own, opened
	// over the same store before the first write: enough cold loads to keep
	// the store busy for as long as the writer runs.
	const readers = 4
	cold := make([]*Engine, 3*readers)
	for i := range cold {
		if cold[i], err = Open(store, nil); err != nil {
			t.Fatal(err)
		}
	}
	first := eng.Index()
	vocab := first.Vocabulary()

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Fresh tags and fresh words only; many of them, so the batch
			// spends its time writing to the store the lists load from.
			var frag strings.Builder
			frag.WriteString("<zzbatch>")
			for j := 0; j < 200; j++ {
				fmt.Fprintf(&frag, "<zzword>zz%dx%d</zzword>", i, j)
			}
			frag.WriteString("</zzbatch>")
			_, err := eng.Apply(&mutate.Batch{Ops: []mutate.Op{{
				Kind: mutate.OpInsert, Parent: dewey.Root(), XML: frag.String(),
			}}})
			if err != nil {
				t.Errorf("apply %d: %v", i, err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for e := r; e < len(cold); e += readers {
				ix := cold[e].Index()
				for _, term := range vocab {
					l, err := ix.List(term)
					if err != nil {
						t.Errorf("lazy load of %q beside Apply: %v", term, err)
						return
					}
					if got, want := l.Len(), first.ListLen(term); got != want {
						t.Errorf("list %q loaded with %d postings, index promises %d", term, got, want)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	<-done
	if eng.Epoch() == 0 {
		t.Fatal("no batch committed while the lists loaded; the overlap was never exercised")
	}
}
