package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xrefine"
	"xrefine/internal/shard"
	"xrefine/internal/storage"
)

const statDoc = `<bib>
  <author><publications>
    <paper><title>database database systems</title><year>2003</year></paper>
  </publications></author>
  <author><publications>
    <paper><title>database search</title><year>2005</year></paper>
  </publications></author>
</bib>`

func TestRunOnXML(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.xml")
	if err := os.WriteFile(path, []byte(statDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-xml", path, "-top", "3"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"nodes:", "partitions:  2", "vocabulary:", "database", "bib/author/publications/paper/title"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunOnIndex(t *testing.T) {
	dir := t.TempDir()
	eng, err := xrefine.NewFromXML(strings.NewReader(statDoc), nil)
	if err != nil {
		t.Fatal(err)
	}
	kv := filepath.Join(dir, "d.kv")
	store, err := xrefine.OpenStore(kv, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveIndex(store); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-index", kv}, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"store:", "epoch:       0"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-xml", "/nonexistent.xml"},
		{"-index", "/nonexistent.kv"},
		{"-badflag"},
	} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// TestRetiredLogStoreRefused: stores of the retired log-structured engine
// fail to open with an error wrapping storage.ErrUnsupportedFormat, on
// every path that opens a store — the root API, the shard router and
// xstat. A store path that is a directory is such a store, and so is a
// shard whose manifest names the "log" backend. Manifests that omit the
// backend or name the B+tree still open.
func TestRetiredLogStoreRefused(t *testing.T) {
	eng, err := xrefine.NewFromXML(strings.NewReader(statDoc), nil)
	if err != nil {
		t.Fatal(err)
	}
	logDir := filepath.Join(t.TempDir(), "dblp.logdb")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(logDir, "000001.data"), []byte("segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	// shardDir writes a one-shard directory whose manifest entry is set
	// to backend, and, when logStore, whose store is a directory.
	shardDir := func(backend string, logStore bool) string {
		t.Helper()
		dir := t.TempDir()
		man, err := shard.WriteStores(eng.Document(), dir, 1, shard.ModeRange)
		if err != nil {
			t.Fatal(err)
		}
		man.Shards[0].Backend = backend
		if logStore {
			store := filepath.Join(dir, man.Shards[0].Store)
			if err := os.Remove(store); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(store, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := json.Marshal(man)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, shard.ManifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	openShards := func(dir string) error {
		r, err := shard.Open(dir, nil)
		if err == nil {
			r.Close()
		}
		return err
	}
	openRoot := func(path string, readOnly bool) error {
		s, err := xrefine.OpenStore(path, readOnly)
		if err == nil {
			s.Close()
		}
		return err
	}
	cases := []struct {
		name    string
		open    func() error
		refused bool
	}{
		{"xrefine.OpenStore/dir", func() error { return openRoot(logDir, false) }, true},
		{"xrefine.OpenStore/dir-read-only", func() error { return openRoot(logDir, true) }, true},
		{"xstat.openStore/dir", func() error {
			s, err := openStore(logDir)
			if err == nil {
				s.Close()
			}
			return err
		}, true},
		{"xstat-index/dir", func() error { return run([]string{"-index", logDir, "-storage"}, &strings.Builder{}) }, true},
		{"shard.Open/manifest-log", func() error { return openShards(shardDir("log", false)) }, true},
		{"shard.Open/store-dir", func() error { return openShards(shardDir("", true)) }, true},
		{"xstat-shards/manifest-log", func() error { return run([]string{"-shards", shardDir("log", false)}, &strings.Builder{}) }, true},
		{"shard.Open/manifest-omitted", func() error { return openShards(shardDir("", false)) }, false},
		{"shard.Open/manifest-btree", func() error { return openShards(shardDir("btree", false)) }, false},
		{"xstat-shards/manifest-omitted", func() error { return run([]string{"-shards", shardDir("", false)}, &strings.Builder{}) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.open()
			switch {
			case tc.refused && !errors.Is(err, storage.ErrUnsupportedFormat):
				t.Fatalf("err = %v, want one wrapping storage.ErrUnsupportedFormat", err)
			case !tc.refused && err != nil:
				t.Fatalf("err = %v, want the store to open", err)
			}
		})
	}
}
