package kvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"xrefine/internal/storage"
)

// fillStore populates a store with a deterministic key set.
func fillStore(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		v := []byte(fmt.Sprintf("value-%05d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultsReadError(t *testing.T) {
	f := &storage.Faults{}
	s := NewMemWithFaults(f)
	defer s.Close()
	fillStore(t, s, 500)

	s.DropCaches() // force lookups back to the (faulty) pager
	f.FailReads(1)
	var sawErr bool
	for i := 0; i < 500; i++ {
		_, _, err := s.Get([]byte(fmt.Sprintf("key-%05d", i)))
		if err != nil {
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("want storage.ErrInjected, got %v", err)
			}
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("no read ever reached the faulty pager")
	}
	f.Clear()
	if _, ok, err := s.Get([]byte("key-00042")); err != nil || !ok {
		t.Fatalf("store did not heal after Clear: ok=%v err=%v", ok, err)
	}
	if f.Injected() == 0 {
		t.Error("injected counter not incremented")
	}
}

func TestFaultsWriteErrorKeepsCommittedState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.kv")
	f := &storage.Faults{}
	s, err := Open(path, &Options{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 200)

	// Arm a write failure, mutate, and try to commit: Commit must fail
	// with the injected error and the on-disk committed tree must stay
	// the previous one.
	f.FailWrites(1)
	if err := s.Put([]byte("key-00007"), []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("Commit = %v, want storage.ErrInjected", err)
	}
	// The failpoint stays armed through Close so its implicit Commit
	// retry cannot publish the mutation either.
	s.Close()

	re, err := Open(path, nil)
	if err != nil {
		t.Fatalf("reopen after failed commit: %v", err)
	}
	defer re.Close()
	v, ok, err := re.Get([]byte("key-00007"))
	if err != nil || !ok {
		t.Fatalf("Get after reopen: ok=%v err=%v", ok, err)
	}
	// The failed commit never published a new meta page, so the old
	// committed value must still be visible.
	if want := "value-00007-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"; string(v) != want {
		t.Fatalf("after failed commit Get = %q, want the committed %q", v, want)
	}
}

func TestFaultsTornWriteRecoversPreviousCommit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.kv")
	f := &storage.Faults{}
	s, err := Open(path, &Options{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 200)

	// Tear the first page write of the next commit. The write reports
	// success, the commit publishes, and the corruption is silent until
	// a read hits the page. Open's reachability scan catches the CRC
	// mismatch and must fall back to the previous commit's meta slot —
	// the torn commit disappears, the committed state before it survives.
	f.TornWrite(1)
	if err := s.Put([]byte("key-00100"), []byte("new-value")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("torn-write commit should report success, got %v", err)
	}
	s.Close()

	re, err := Open(path, nil)
	if err != nil {
		t.Fatalf("Open after torn commit: %v", err)
	}
	defer re.Close()
	if got := re.OpStats().MetaFallbacks; got != 1 {
		t.Fatalf("MetaFallbacks = %d, want 1", got)
	}
	v, ok, err := re.Get([]byte("key-00100"))
	if err != nil || !ok {
		t.Fatalf("Get after recovery: ok=%v err=%v", ok, err)
	}
	if want := "value-00100-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"; string(v) != want {
		t.Fatalf("recovered Get = %q, want the pre-torn-commit %q", v, want)
	}
	if re.Len() != 200 {
		t.Fatalf("recovered Len = %d, want 200", re.Len())
	}
}

func TestFaultsLatencyAndCounters(t *testing.T) {
	f := &storage.Faults{ReadLatency: 2 * time.Millisecond}
	s := NewMemWithFaults(f)
	defer s.Close()
	fillStore(t, s, 50)
	s.DropCaches()
	before := f.Reads()
	start := time.Now()
	for i := 0; i < 50; i++ {
		if _, _, err := s.Get([]byte(fmt.Sprintf("key-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	delta := f.Reads() - before
	if delta == 0 {
		t.Fatal("no reads reached the pager")
	}
	if min := time.Duration(delta) * 2 * time.Millisecond; time.Since(start) < min {
		t.Errorf("latency not applied: %v elapsed for %d reads", time.Since(start), delta)
	}
	if f.Writes() == 0 {
		t.Error("write counter not incremented during fill")
	}
}

// TestCorruptionFlips persists a store, flips random bytes across the
// file, and asserts that reopening and reading either fails with a typed
// error or returns only correct data — never panics, never garbage.
func TestCorruptionFlips(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.kv")
	s, err := Open(clean, nil)
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 300)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		corrupt := append([]byte(nil), pristine...)
		for i := 0; i < 1+rng.Intn(4); i++ {
			pos := rng.Intn(len(corrupt))
			corrupt[pos] ^= byte(1 + rng.Intn(255))
		}
		path := filepath.Join(dir, fmt.Sprintf("corrupt-%d.kv", trial))
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic on corrupt store: %v", trial, r)
				}
			}()
			cs, err := Open(path, nil)
			if err != nil {
				return // typed rejection at Open is a pass
			}
			defer cs.Close()
			for i := 0; i < 300; i += 17 {
				k := fmt.Sprintf("key-%05d", i)
				v, ok, err := cs.Get([]byte(k))
				if err != nil {
					return // typed rejection at read is a pass
				}
				if ok {
					want := fmt.Sprintf("value-%05d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
					if string(v) != want {
						t.Fatalf("trial %d: silent wrong data for %s: %q", trial, k, v)
					}
				}
			}
		}()
	}
}

// TestFaultsErrorRate checks the probabilistic failpoint's endpoints and a
// mid-range rate: p=0 never fires, p=1 always fires, p=0.5 fires roughly
// half the time under the fixed default seed.
func TestFaultsErrorRate(t *testing.T) {
	f := &storage.Faults{}
	s := NewMemWithFaults(f)
	defer s.Close()
	fillStore(t, s, 200)

	// p=0 (disarmed): everything succeeds.
	s.DropCaches()
	for i := 0; i < 200; i++ {
		if _, ok, err := s.Get([]byte(fmt.Sprintf("key-%05d", i))); err != nil || !ok {
			t.Fatalf("disarmed read failed: ok=%v err=%v", ok, err)
		}
	}

	// p=1: the first pager read fails, typed.
	f.SetErrorRate(1)
	s.DropCaches()
	if _, _, err := s.Get([]byte("key-00000")); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("p=1 read error = %v, want storage.ErrInjected", err)
	}

	// p=0.5: out of many pager reads, both outcomes occur, and the
	// injected share is nowhere near the endpoints.
	f.Clear()
	f.SetErrorRate(0.5)
	f.Seed(12345)
	var okReads, failed int
	for i := 0; i < 200; i++ {
		s.DropCaches()
		if _, _, err := s.Get([]byte(fmt.Sprintf("key-%05d", i))); err != nil {
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("want storage.ErrInjected, got %v", err)
			}
			failed++
		} else {
			okReads++
		}
	}
	if failed == 0 || okReads == 0 {
		t.Fatalf("p=0.5 over 200 reads: %d failed, %d ok — want both outcomes", failed, okReads)
	}
	f.Clear()
	s.DropCaches()
	if _, ok, err := s.Get([]byte("key-00042")); err != nil || !ok {
		t.Fatalf("store did not heal after Clear: ok=%v err=%v", ok, err)
	}
}

// TestFaultsJitter checks the latency-jitter failpoint: a read through an
// armed range takes at least the minimum, and Clear disarms it.
func TestFaultsJitter(t *testing.T) {
	f := &storage.Faults{}
	s := NewMemWithFaults(f)
	defer s.Close()
	fillStore(t, s, 50)

	const min = 2 * time.Millisecond
	f.SetJitter(min, 4*time.Millisecond)
	s.DropCaches()
	start := time.Now()
	if _, ok, err := s.Get([]byte("key-00000")); err != nil || !ok {
		t.Fatalf("jittered read failed: ok=%v err=%v", ok, err)
	}
	if el := time.Since(start); el < min {
		t.Errorf("jittered read took %v, want >= %v", el, min)
	}
	f.Clear()
	start = time.Now()
	for i := 0; i < 20; i++ {
		if err := f.OnRead(); err != nil {
			t.Fatalf("OnRead after Clear: %v", err)
		}
	}
	if el := time.Since(start); el >= 20*min {
		t.Errorf("20 reads after Clear took %v — jitter range still armed", el)
	}
}

// TestFaultsSeedReproducible: the same seed yields the same injection
// pattern over the same operation sequence.
func TestFaultsSeedReproducible(t *testing.T) {
	pattern := func(seed uint64) []bool {
		f := &storage.Faults{}
		f.SetErrorRate(0.3)
		f.Seed(seed)
		out := make([]bool, 64)
		for i := range out {
			out[i] = f.OnRead() != nil
		}
		return out
	}
	a, b := pattern(7), pattern(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	c := pattern(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical 64-op pattern")
	}
}
