package wire

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/experiments"
	"xrefine/internal/mutate"
	"xrefine/internal/server"
	"xrefine/internal/storage"
	"xrefine/internal/storage/backends"
)

// splitOldLayout stores key's value the way stores written before the
// storage chunker did: as cells of at most cell bytes under
// key+"\x00"+<seq BE32>, with no cell under key itself unless keepFirst,
// in which case the first cell sits under key and the sequence starts
// with the second.
func splitOldLayout(t *testing.T, s storage.Backend, key []byte, cell int, keepFirst bool) {
	t.Helper()
	v, ok, err := storage.GetChunked(s, key)
	if err != nil || !ok {
		t.Fatalf("%q: ok %v err %v", key, ok, err)
	}
	if err := storage.DeleteChunked(s, key); err != nil {
		t.Fatal(err)
	}
	if keepFirst {
		end := min(len(v), cell)
		if err := s.Put(key, v[:end]); err != nil {
			t.Fatal(err)
		}
		v = v[end:]
	}
	for seq, off := uint32(0), 0; off < len(v); seq++ {
		end := min(off+cell, len(v))
		if err := s.Put(binary.BigEndian.AppendUint32(append(bytes.Clone(key), 0), seq), v[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
	}
}

// toOldLayout rewrites a saved store into the layout of stores written
// before the storage chunker: each posting list in 768-byte cells under
// L\x00<term>\x00<seq BE32> only, the document in MaxKV-16-byte cells under
// D\x00c\x00<seq BE32> only, and the two metadata values in MaxKV-16-byte
// cells starting under their own keys. Frequent-table rows were single
// cells then and stay so.
func toOldLayout(t *testing.T, s storage.Backend) {
	t.Helper()
	var lists [][]byte
	if err := s.Range([]byte("L\x00"), []byte("L\x01"), func(k, _ []byte) bool {
		if bytes.IndexByte(k[2:], 0) < 0 {
			lists = append(lists, bytes.Clone(k))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(lists) == 0 {
		t.Fatal("store holds no posting lists")
	}
	for _, k := range lists {
		splitOldLayout(t, s, k, 768, false)
	}
	splitOldLayout(t, s, []byte("D\x00c"), s.MaxKV()-16, false)
	for _, k := range []string{"M\x00types", "M\x00doc"} {
		splitOldLayout(t, s, []byte(k), s.MaxKV()-16, true)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

// goldenLines reads testdata/answers.golden into a map from request name
// to its recorded length and digest.
func goldenLines(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "answers.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, rest, ok := strings.Cut(sc.Text(), " len="); ok {
			lines[name] = rest
		}
	}
	return lines
}

// TestOldLayoutStoreOpensAndUpdates holds compatibility with stores whose
// posting lists and document are continuation cells only: such a store
// opens, answers every golden query at k=1, 3 and 10 with the bytes
// answers.golden pins, takes a live update, and reopens answering like an
// in-memory engine that took the same update.
func TestOldLayoutStoreOpensAndUpdates(t *testing.T) {
	c, err := experiments.DBLPCorpus(0.2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.kv")
	open := func() storage.Backend {
		t.Helper()
		s, err := backends.Open(storage.KindBTree, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	if err := core.NewFromDocument(c.Doc, nil).SaveIndexWithDocument(s); err != nil {
		t.Fatal(err)
	}
	toOldLayout(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = open()
	eng, err := core.Open(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := server.New(eng, server.Config{TraceSampleEvery: -1})
	golden := goldenLines(t)
	queries := goldenQueries(t, c)
	for _, k := range []int{1, 3, 10} {
		for _, q := range queries {
			name := fmt.Sprintf("k=%d q=%s", k, strings.ReplaceAll(q, " ", "+"))
			code, body := httpSearch(t, h, q, k)
			got := fmt.Sprintf("%d sha256=%x", len(body), sha256.Sum256([]byte(body)))
			if code != http.StatusOK || got != golden[name] {
				t.Fatalf("%s: %d len=%s, golden len=%s", name, code, got, golden[name])
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	batch := &mutate.Batch{Ops: []mutate.Op{{Kind: mutate.OpInsert, Parent: c.Doc.Root.ID,
		XML: "<article><author>Ann Old</author><title>xml query processing on database layouts</title><year>2002</year></article>"}}}
	mem := core.NewFromDocument(c.Doc, nil)
	if _, err := mem.Apply(batch); err != nil {
		t.Fatal(err)
	}
	want := server.New(mem, server.Config{TraceSampleEvery: -1})
	same := func(label string, h http.Handler) {
		t.Helper()
		for _, q := range append(queries, "ann old layouts") {
			_, w := httpSearch(t, want, q, 3)
			if _, g := httpSearch(t, h, q, 3); g != w {
				t.Fatalf("%s: %q diverges from the in-memory engine\n got: %s\nwant: %s", label, q, g, w)
			}
		}
	}
	s = open()
	live, err := core.OpenLive(s, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Apply(batch); err != nil {
		t.Fatal(err)
	}
	same("live", server.New(live, server.Config{TraceSampleEvery: -1}))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open()
	defer s.Close()
	reopened, err := core.Open(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	same("reopened", server.New(reopened, server.Config{TraceSampleEvery: -1}))
}
