package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"xrefine/internal/kvstore"
	"xrefine/internal/storage"
)

// cells counts the stored cells of key's value: the cell under key and
// every continuation cell.
func cells(t *testing.T, s storage.Backend, key []byte) int {
	t.Helper()
	n := 0
	if err := s.Range(key, append(bytes.Clone(key), 1), func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

// wantCells is how many cells PutChunked fills for a value of n bytes.
func wantCells(maxKV, keyLen, n int) int {
	first := maxKV - keyLen
	if n <= first {
		return 1
	}
	room := first - 5
	return 1 + (n-first+room-1)/room
}

func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) + salt
	}
	return b
}

func mustGet(t *testing.T, s storage.Backend, key, want []byte) {
	t.Helper()
	got, ok, err := storage.GetChunked(s, key)
	if err != nil || !ok {
		t.Fatalf("GetChunked(%d-byte key) = ok %v, err %v", len(key), ok, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("GetChunked(%d-byte key) = %d bytes, want %d", len(key), len(got), len(want))
	}
}

// FuzzChunkRoundTrip writes one value under a key of any length up to the
// bound, overwrites it with another of any size up to ten cells' worth,
// and deletes it, beside two neighbour keys that share its prefix: every
// read returns the last value, no continuation cell outlives a shorter
// overwrite, and the neighbours never change.
func FuzzChunkRoundTrip(f *testing.F) {
	f.Add(uint16(3), uint32(0), uint32(0), byte(0))
	f.Add(uint16(9), uint32(9000), uint32(10), byte(1))
	f.Add(uint16(257), uint32(763), uint32(764), byte(2))
	f.Add(uint16(262), uint32(1), uint32(10200), byte(3))
	f.Add(uint16(1014), uint32(2000), uint32(1), byte(4))
	f.Add(uint16(1015), uint32(5), uint32(5), byte(5))
	f.Fuzz(func(t *testing.T, keyLen uint16, firstLen, secondLen uint32, salt byte) {
		s := kvstore.NewMem()
		defer s.Close()
		maxKV := s.MaxKV()
		key := pattern(1+int(keyLen)%maxKV, salt|1)
		for i := range key {
			key[i] |= 1 // a zero byte would make a neighbour a continuation
		}
		first := pattern(int(firstLen)%(10*maxKV+1), salt)
		second := pattern(int(secondLen)%(10*maxKV+1), salt+1)

		err := storage.PutChunked(s, key, first)
		var tooLong *storage.KeyTooLongError
		if len(key)+5 >= maxKV {
			if !errors.As(err, &tooLong) || tooLong.Len != len(key) {
				t.Fatalf("%d-byte key: err %v, want KeyTooLongError", len(key), err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		mustGet(t, s, key, first)

		// Neighbours: the key less its last byte, and the key plus one.
		neighbours := map[string][]byte{}
		for i, nk := range [][]byte{key[:len(key)-1], append(bytes.Clone(key), 'x')} {
			v := pattern(3*maxKV/2, byte(i))
			if len(nk) == 0 || storage.PutChunked(s, nk, v) != nil {
				continue
			}
			neighbours[string(nk)] = v
		}

		if err := storage.PutChunked(s, key, second); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		mustGet(t, s, key, second)
		if got, want := cells(t, s, key), wantCells(maxKV, len(key), len(second)); got != want {
			t.Fatalf("%d-byte value under a %d-byte key left %d cells, want %d", len(second), len(key), got, want)
		}
		if err := storage.DeleteChunked(s, key); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := storage.GetChunked(s, key); ok || err != nil {
			t.Fatalf("deleted value still reads: ok %v err %v", ok, err)
		}
		for nk, v := range neighbours {
			mustGet(t, s, []byte(nk), v)
		}
	})
}

// A value stored as continuation cells only, as stores written before the
// chunker kept posting lists and the document, reads back as their
// concatenation, and an overwrite replaces every one of them.
func TestGetChunkedJoinsContinuationsOnly(t *testing.T) {
	s := kvstore.NewMem()
	defer s.Close()
	key := []byte("L\x00term")
	var want []byte
	for seq := byte(0); seq < 3; seq++ {
		part := pattern(768, seq)
		want = append(want, part...)
		if err := s.Put(append(bytes.Clone(key), 0, 0, 0, 0, seq), part); err != nil {
			t.Fatal(err)
		}
	}
	mustGet(t, s, key, want)
	if err := storage.PutChunked(s, key, []byte("short")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, s, key, []byte("short"))
	if n := cells(t, s, key); n != 1 {
		t.Fatalf("overwrite left %d cells, want 1", n)
	}
}

func TestRangeChunkedFoldsContinuations(t *testing.T) {
	s := kvstore.NewMem()
	defer s.Close()
	want := map[string][]byte{}
	for i, n := range []int{0, 10, 3000, 1020, 5} {
		key := []byte(fmt.Sprintf("F\x00t%d", i))
		want[string(key)] = pattern(n, byte(i))
		if err := storage.PutChunked(s, key, want[string(key)]); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string][]byte{}
	if err := storage.RangeChunked(s, []byte("F\x00"), []byte("F\x01"), func(k, v []byte) bool {
		got[string(k)] = bytes.Clone(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("RangeChunked saw %d values, want %d", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("%q: %d bytes, want %d", k, len(got[k]), len(v))
		}
	}
	seen := 0
	if err := storage.RangeChunked(s, []byte("F\x00"), []byte("F\x01"), func(_, _ []byte) bool {
		seen++
		return false
	}); err != nil || seen != 1 {
		t.Fatalf("early stop: saw %d, err %v", seen, err)
	}
}
