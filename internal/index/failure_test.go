package index

import (
	"strings"
	"testing"

	"xrefine/internal/kvstore"
	"xrefine/internal/xmltree"
)

// Failure injection: every class of on-disk corruption must surface as an
// error from Load or from the first lazy List call — never a panic, never
// silent bad data.

func savedStore(t *testing.T) (*kvstore.Store, *Index) {
	t.Helper()
	doc, err := xmltree.ParseString(`
<bib>
  <author><name>john</name><paper><title>xml database search</title></paper></author>
  <author><name>mary</name><paper><title>keyword query</title></paper></author>
</bib>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc)
	s := kvstore.NewMem()
	if err := ix.Save(s); err != nil {
		t.Fatal(err)
	}
	return s, ix
}

func TestLoadCorruptRegistry(t *testing.T) {
	s, _ := savedStore(t)
	defer s.Close()
	// Orphan child path: parent listed after child.
	if err := s.Put([]byte(metaTypesKey), []byte("a/b\na\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(s); err == nil {
		t.Error("corrupt registry loaded without error")
	}
}

func TestLoadCorruptDocMeta(t *testing.T) {
	s, _ := savedStore(t)
	defer s.Close()
	if err := s.Put([]byte(metaDocKey), []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(s); err == nil {
		t.Error("corrupt doc meta loaded without error")
	}
	// Type-count mismatch is also rejected.
	if err := s.Put([]byte(metaDocKey), []byte{10, 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(s); err == nil {
		t.Error("type-count mismatch loaded without error")
	}
}

func TestLoadCorruptFreqRow(t *testing.T) {
	s, _ := savedStore(t)
	defer s.Close()
	if err := s.Put(freqKey("xml"), []byte{0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(s); err == nil {
		t.Error("corrupt frequency row loaded without error")
	}
}

func TestLazyListCorruptChunk(t *testing.T) {
	s, _ := savedStore(t)
	defer s.Close()
	// Chunk with an impossible shared-prefix length.
	if err := s.Put(listKey("xml"), []byte{50, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	ix, err := Load(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.List("xml"); err == nil {
		t.Error("corrupt chunk decoded without error")
	}
	// Unknown type ID in a chunk.
	if err := s.Put(listKey("database"), []byte{0, 1, 0, 200}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.List("database"); err == nil {
		t.Error("unknown type ID decoded without error")
	}
	// Truncated varint stream.
	if err := s.Put(listKey("search"), []byte{0x80}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.List("search"); err == nil {
		t.Error("truncated chunk decoded without error")
	}
	// Other terms stay readable.
	if l, err := ix.List("keyword"); err != nil || l.Len() == 0 {
		t.Errorf("healthy term affected: %v %d", err, l.Len())
	}
}

func TestLazyListOutOfOrderChunk(t *testing.T) {
	s, _ := savedStore(t)
	defer s.Close()
	ix, err := Load(s)
	if err != nil {
		t.Fatal(err)
	}
	// A chunk whose second posting repeats the first (shared = full
	// length, zero new components): out of document order, must error.
	chunk := []byte{
		0, 2, 1, 2, 0, // posting 1.2, type 0
		2, 0, 0, // shared=2, extra=0 -> identical id, type 0
	}
	if err := s.Put(listKey("query"), chunk); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.List("query"); err == nil {
		t.Error("out-of-order chunk decoded without error")
	}
}

func TestSaveIntoReadOnlyStore(t *testing.T) {
	_, ix := savedStore(t)
	dir := t.TempDir()
	path := dir + "/ro.kv"
	w, err := kvstore.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put([]byte("x"), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := kvstore.Open(path, &kvstore.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := ix.Save(ro); err == nil {
		t.Error("Save into read-only store succeeded")
	}
}

func TestLoadFromEmptyAndForeignStores(t *testing.T) {
	empty := kvstore.NewMem()
	defer empty.Close()
	if _, err := Load(empty); err == nil || !strings.Contains(err.Error(), "registry") {
		t.Errorf("empty store: %v", err)
	}
	foreign := kvstore.NewMem()
	defer foreign.Close()
	if err := foreign.Put([]byte("unrelated"), []byte("data")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(foreign); err == nil {
		t.Error("foreign store loaded as index")
	}
}
