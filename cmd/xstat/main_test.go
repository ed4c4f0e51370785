package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xrefine"
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
