package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func tempStore(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.kv")
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

func TestPutGetDelete(t *testing.T) {
	for name, open := range map[string]func(t *testing.T) *Store{
		"mem":  func(t *testing.T) *Store { return NewMem() },
		"file": func(t *testing.T) *Store { s, _ := tempStore(t); return s },
	} {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			defer s.Close()
			if _, ok, err := s.Get([]byte("missing")); err != nil || ok {
				t.Fatalf("Get on empty: %v %v", ok, err)
			}
			if err := s.Put([]byte("k1"), []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put([]byte("k2"), []byte("v2")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := s.Get([]byte("k1"))
			if err != nil || !ok || string(v) != "v1" {
				t.Fatalf("Get k1 = %q %v %v", v, ok, err)
			}
			// overwrite
			if err := s.Put([]byte("k1"), []byte("v1b")); err != nil {
				t.Fatal(err)
			}
			v, _, _ = s.Get([]byte("k1"))
			if string(v) != "v1b" {
				t.Fatalf("overwrite failed: %q", v)
			}
			if s.Len() != 2 {
				t.Fatalf("Len = %d", s.Len())
			}
			del, err := s.Delete([]byte("k1"))
			if err != nil || !del {
				t.Fatalf("Delete: %v %v", del, err)
			}
			if del, _ := s.Delete([]byte("k1")); del {
				t.Fatal("double delete reported true")
			}
			if _, ok, _ := s.Get([]byte("k1")); ok {
				t.Fatal("deleted key still present")
			}
			if s.Len() != 1 {
				t.Fatalf("Len after delete = %d", s.Len())
			}
		})
	}
}

func TestEmptyKeyAndTooLarge(t *testing.T) {
	s := NewMem()
	defer s.Close()
	if err := s.Put(nil, []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
	big := make([]byte, s.MaxKV()+10)
	if err := s.Put([]byte("k"), big); err == nil {
		t.Error("oversized value accepted")
	}
	if err := s.Put([]byte("k"), make([]byte, s.MaxKV()-1)); err != nil {
		t.Errorf("max-size value rejected: %v", err)
	}
}

func TestManyKeysOrderedIteration(t *testing.T) {
	s := NewMem()
	defer s.Close()
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		k := []byte(fmt.Sprintf("key-%06d", i))
		if err := s.Put(k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d", s.Len())
	}
	c := s.Cursor()
	c.First()
	count := 0
	var prev []byte
	for c.Valid() {
		if prev != nil && bytes.Compare(prev, c.Key()) >= 0 {
			t.Fatalf("out of order at %d: %q >= %q", count, prev, c.Key())
		}
		prev = append(prev[:0], c.Key()...)
		count++
		c.Next()
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if count != n {
		t.Fatalf("iterated %d of %d", count, n)
	}
}

func TestSeekSemantics(t *testing.T) {
	s := NewMem()
	defer s.Close()
	for _, k := range []string{"b", "d", "f"} {
		if err := s.Put([]byte(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]string{"a": "b", "b": "b", "c": "d", "f": "f", "g": ""}
	for seek, want := range cases {
		c := s.Cursor()
		c.Seek([]byte(seek))
		if want == "" {
			if c.Valid() {
				t.Errorf("Seek(%q) should be invalid, at %q", seek, c.Key())
			}
			continue
		}
		if !c.Valid() || string(c.Key()) != want {
			t.Errorf("Seek(%q) = %q (valid %v), want %q", seek, c.Key(), c.Valid(), want)
		}
	}
}

func TestRange(t *testing.T) {
	s := NewMem()
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Put([]byte{byte('a' + i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	err := s.Range([]byte("c"), []byte("g"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"c", "d", "e", "f"}; !equalStrings(got, want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
	// early stop
	got = got[:0]
	if err := s.Range(nil, nil, func(k, v []byte) bool { got = append(got, string(k)); return len(got) < 3 }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("early stop yielded %d", len(got))
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.kv")
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil { // Close commits
		t.Fatal(err)
	}
	s2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2000 {
		t.Fatalf("reopened Len = %d", s2.Len())
	}
	v, ok, err := s2.Get([]byte("k01234"))
	if err != nil || !ok || string(v) != "v1234" {
		t.Fatalf("reopened Get = %q %v %v", v, ok, err)
	}
}

func TestUncommittedChangesDiscardedOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.kv")
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("stable"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("volatile"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: drop the handle without Commit/Close.
	if err := s.pager.close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok, _ := s2.Get([]byte("stable")); !ok {
		t.Error("committed key lost")
	}
	if _, ok, _ := s2.Get([]byte("volatile")); ok {
		t.Error("uncommitted key survived simulated crash")
	}
}

func TestReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ro.kv")
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(path, &Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := ro.Put([]byte("x"), []byte("y")); err != ErrReadOnly {
		t.Errorf("Put on read-only = %v", err)
	}
	if _, err := ro.Delete([]byte("k")); err != ErrReadOnly {
		t.Errorf("Delete on read-only = %v", err)
	}
	if v, ok, _ := ro.Get([]byte("k")); !ok || string(v) != "v" {
		t.Error("read-only Get failed")
	}
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	// empty file read-only
	empty := filepath.Join(dir, "empty.kv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(empty, &Options{ReadOnly: true}); err == nil {
		t.Error("empty read-only open should fail")
	}
	// corrupt meta
	garbage := filepath.Join(dir, "garbage.kv")
	if err := os.WriteFile(garbage, make([]byte, DefaultPageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(garbage, nil); err == nil {
		t.Error("garbage meta should fail to open")
	}
	// wrong page size on reopen
	path := filepath.Join(dir, "ps.kv")
	s, err := Open(path, &Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("k"), []byte("v"))
	s.Close()
	if _, err := Open(path, &Options{PageSize: 4096}); err == nil {
		t.Error("page size mismatch should fail")
	}
	// tiny page size
	if _, err := Open(filepath.Join(dir, "t.kv"), &Options{PageSize: 64}); err == nil {
		t.Error("tiny page size should fail")
	}
}

func TestClosedStore(t *testing.T) {
	s := NewMem()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("v")); err != ErrClosed {
		t.Errorf("Put after close = %v", err)
	}
	if _, _, err := s.Get([]byte("k")); err != ErrClosed {
		t.Errorf("Get after close = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestFreePageReuse(t *testing.T) {
	s := NewMem()
	defer s.Close()
	// Repeatedly rewrite the same keys with commits in between; COW must
	// recycle pages instead of growing the file without bound.
	for round := 0; round < 30; round++ {
		for i := 0; i < 300; i++ {
			if err := s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	// ~300 small keys fit in a handful of pages; 30 rounds of COW would
	// allocate thousands of pages without reuse.
	if st.Pages > 200 {
		t.Fatalf("page count %d suggests free pages are not reused", st.Pages)
	}
}

func TestDeleteCollapsesTree(t *testing.T) {
	s := NewMem()
	defer s.Close()
	const n = 3000
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%05d", i)), bytes.Repeat([]byte("x"), 50)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if del, err := s.Delete([]byte(fmt.Sprintf("k%05d", i))); err != nil || !del {
			t.Fatalf("delete %d: %v %v", i, del, err)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after full delete", s.Len())
	}
	c := s.Cursor()
	c.First()
	if c.Valid() {
		t.Fatal("cursor valid on emptied store")
	}
	// Store must still accept inserts after total deletion.
	if err := s.Put([]byte("again"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s.Get([]byte("again")); !ok || string(v) != "v" {
		t.Fatal("insert after emptying failed")
	}
}

// Model-based property test: random interleaving of Put/Delete/Commit
// checked against a plain map, with periodic full-iteration comparison and
// a final reopen from disk.
func TestPropertyAgainstMapModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.kv")
	s, err := Open(path, &Options{PageSize: 512}) // small pages force deep trees
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string]string)
	r := rand.New(rand.NewSource(2024))
	randKey := func() string { return fmt.Sprintf("k%03d", r.Intn(400)) }
	for op := 0; op < 20000; op++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // put
			k, v := randKey(), fmt.Sprintf("v%d", op)
			if err := s.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 6, 7: // delete
			k := randKey()
			_, inModel := model[k]
			del, err := s.Delete([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			if del != inModel {
				t.Fatalf("delete(%q) = %v, model %v", k, del, inModel)
			}
			delete(model, k)
		case 8: // point lookup
			k := randKey()
			v, ok, err := s.Get([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			mv, mok := model[k]
			if ok != mok || (ok && string(v) != mv) {
				t.Fatalf("get(%q) = %q,%v model %q,%v", k, v, ok, mv, mok)
			}
		case 9:
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if op%2500 == 0 {
			compareWithModel(t, s, model)
		}
	}
	compareWithModel(t, s, model)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	compareWithModel(t, s2, model)
}

func compareWithModel(t *testing.T, s *Store, model map[string]string) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", s.Len(), len(model))
	}
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	c := s.Cursor()
	for c.First(); c.Valid(); c.Next() {
		if i >= len(keys) {
			t.Fatalf("extra key %q", c.Key())
		}
		if string(c.Key()) != keys[i] || string(c.Value()) != model[keys[i]] {
			t.Fatalf("at %d: got %q=%q, want %q=%q", i, c.Key(), c.Value(), keys[i], model[keys[i]])
		}
		i++
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if i != len(keys) {
		t.Fatalf("iterated %d, model has %d", i, len(keys))
	}
}

func TestConcurrentReaders(t *testing.T) {
	s := NewMem()
	defer s.Close()
	for i := 0; i < 2000; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				k := []byte(fmt.Sprintf("k%05d", r.Intn(2000)))
				if _, ok, err := s.Get(k); err != nil || !ok {
					done <- fmt.Errorf("get %s: %v %v", k, ok, err)
					return
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestStats(t *testing.T) {
	s, _ := tempStore(t)
	defer s.Close()
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	s.Commit()
	st := s.Stats()
	if st.Keys != 100 || st.Pages < 2 || st.PageSize != DefaultPageSize || st.FileSize <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func BenchmarkPut(b *testing.B) {
	s := NewMem()
	defer s.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Put([]byte(fmt.Sprintf("key-%09d", i)), []byte("value"))
	}
}

func BenchmarkGet(b *testing.B) {
	s := NewMem()
	defer s.Close()
	const n = 100000
	for i := 0; i < n; i++ {
		s.Put([]byte(fmt.Sprintf("key-%09d", i)), []byte("value"))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Get([]byte(fmt.Sprintf("key-%09d", i%n)))
	}
}

func BenchmarkCursorScan(b *testing.B) {
	s := NewMem()
	defer s.Close()
	const n = 100000
	for i := 0; i < n; i++ {
		s.Put([]byte(fmt.Sprintf("key-%09d", i)), []byte("value"))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := s.Cursor()
		count := 0
		for c.First(); c.Valid(); c.Next() {
			count++
		}
		if count != n {
			b.Fatalf("scanned %d", count)
		}
	}
}

// Model test with near-limit value sizes: forces constant splitting and
// page-boundary cells, the arithmetic the small-value test never touches.
func TestPropertyLargeValuesAgainstMap(t *testing.T) {
	s := NewMem()
	defer s.Close()
	model := make(map[string]string)
	r := rand.New(rand.NewSource(777))
	maxVal := s.MaxKV() - 12 // leave room for the key
	for op := 0; op < 3000; op++ {
		k := fmt.Sprintf("key-%03d", r.Intn(150))
		switch r.Intn(4) {
		case 0, 1:
			v := strings.Repeat(string(rune('a'+r.Intn(26))), 1+r.Intn(maxVal))
			if err := s.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 2:
			del, err := s.Delete([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := model[k]; ok != del {
				t.Fatalf("delete(%q) = %v, model %v", k, del, ok)
			}
			delete(model, k)
		case 3:
			v, ok, err := s.Get([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			mv, mok := model[k]
			if ok != mok || (ok && string(v) != mv) {
				t.Fatalf("get(%q) mismatch", k)
			}
		}
	}
	compareWithModel(t, s, model)
}

// TestRangeBesideSplittingWriter scans keys no writer touches while a
// writer keeps an uncommitted batch open that lands between them, forcing
// in-place edits and splits of the very leaves the scan is reading. Every
// untouched key must come back with its own value, in order — and under
// -race the scan must not be caught reading nodes the writer mutates,
// which is how a cursor that drops the lock between steps tears cells.
func TestRangeBesideSplittingWriter(t *testing.T) {
	s := NewMem()
	defer s.Close()
	const n = 400
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		pad := bytes.Repeat([]byte("w"), 64) // fat cells split leaves quickly
		for round := 0; round < 4; round++ {
			for i := 0; i < n; i++ {
				if err := s.Put([]byte(fmt.Sprintf("k%04d.w%02d", i, round)), pad); err != nil {
					t.Error(err)
					return
				}
			}
			if err := s.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for scans := 0; ; scans++ {
		next := 0
		err := s.Range(nil, nil, func(k, v []byte) bool {
			if bytes.Contains(k, []byte(".w")) {
				return true // the writer's own keys
			}
			if want := fmt.Sprintf("k%04d", next); string(k) != want || string(v) != "v"+want[1:] {
				t.Errorf("scan %d: untouched key %d came back as %q=%q", scans, next, k, v)
				return false
			}
			next++
			return true
		})
		if err != nil {
			t.Fatalf("scan %d: %v", scans, err)
		}
		if next != n && !t.Failed() {
			t.Fatalf("scan %d saw %d of %d untouched keys", scans, next, n)
		}
		select {
		case <-done:
			return
		default:
		}
		if t.Failed() {
			<-done
			return
		}
	}
}
