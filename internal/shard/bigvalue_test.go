package shard

import (
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/index"
	"xrefine/internal/mutate"
	"xrefine/internal/server"
	"xrefine/internal/storage"
	"xrefine/internal/storage/backends"
	"xrefine/internal/tokenize"
	"xrefine/internal/xmltree"
)

// bigValueCase is a corpus some of whose persisted values outgrow one
// store cell, with queries that read them.
type bigValueCase struct {
	name    string
	records []string // the root's children, as XML fragments
	queries []string
}

func bigValueCases() []bigValueCase {
	long := strings.Repeat("ab", 125) // a 250-byte term
	var titles []string
	for i := range 400 {
		titles = append(titles, fmt.Sprintf("<article><title>%s %s</title><year>%d</year></article>",
			long, []string{"paper", "study", "survey"}[i%3], 1990+i%7))
	}
	var paths []string
	for i := range 600 {
		paths = append(paths, fmt.Sprintf("<rec><f%d>shared word%d</f%d></rec>", i, i%3, i))
	}
	token := strings.Repeat("xyz", 700) // cut to 255 bytes by tokenize
	var tokens []string
	for i := range 20 {
		tokens = append(tokens, fmt.Sprintf("<article><title>%s %s</title></article>", token, []string{"study", "note"}[i%2]))
	}
	return []bigValueCase{
		// A 250-byte term whose posting list outgrows a cell: the key and
		// a fixed 768-byte chunk overflowed the cell bound.
		{"long-term-list", titles, []string{long, long + " survey", long + " 1993 paper", long[:249] + "c study"}},
		// A term under 600 element paths, 300 in each of two shards: its
		// frequent-table row lists a df/tf pair for each and outgrew a
		// cell.
		{"wide-freq-row", paths, []string{"shared", "shared word1", "f17 shared", "f599 word2"}},
		// A 2 100-byte word: its row's key alone outgrew a cell.
		{"long-token", tokens, []string{token, token + " note", token[:300] + " study"}},
	}
}

func bigValueDoc(t *testing.T, records []string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString("<dblp>"+strings.Join(records, "")+"</dblp>", nil)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// answersLike requires h to answer every query at k=3 byte for byte like
// ref, and ref to find something for each.
func answersLike(t *testing.T, label string, h, ref http.Handler, queries []string) {
	t.Helper()
	for _, q := range queries {
		want := fetchSearch(t, ref, q, 3)
		if !strings.Contains(want, `"results"`) {
			t.Fatalf("%s: reference finds nothing for a %d-byte query: %s", label, len(q), want)
		}
		if got := fetchSearch(t, h, q, 3); got != want {
			t.Fatalf("%s: %d-byte query diverges from the in-memory engine\n got: %s\nwant: %s", label, len(q), got, want)
		}
	}
}

func openStore(t *testing.T, path string) storage.Backend {
	t.Helper()
	s, err := backends.Open(storage.KindBTree, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBigValuesPersist saves, updates and shards corpora whose persisted
// values outgrow a store cell — a long term's posting list, a wide
// frequent-table row, an overlong word — and requires every deployment to
// answer like the in-memory engine.
func TestBigValuesPersist(t *testing.T) {
	for _, c := range bigValueCases() {
		t.Run(c.name, func(t *testing.T) {
			doc := bigValueDoc(t, c.records)
			ref := server.New(core.NewFromDocument(doc, nil), server.Config{})

			t.Run("save-open", func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "ix.kv")
				s := openStore(t, path)
				if err := core.NewFromDocument(doc, nil).SaveIndexWithDocument(s); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s = openStore(t, path)
				defer s.Close()
				eng, err := core.Open(s, nil)
				if err != nil {
					t.Fatal(err)
				}
				answersLike(t, "reopened", server.New(eng, server.Config{}), ref, c.queries)
			})

			t.Run("live-apply", func(t *testing.T) {
				base := bigValueDoc(t, []string{"<article><title>base record</title></article>"})
				batch := &mutate.Batch{}
				for _, r := range c.records {
					batch.Ops = append(batch.Ops, mutate.Op{Kind: mutate.OpInsert, Parent: base.Root.ID, XML: r})
				}
				mem := core.NewFromDocument(base, nil)
				if _, err := mem.Apply(batch); err != nil {
					t.Fatal(err)
				}
				want := server.New(mem, server.Config{})

				path := filepath.Join(t.TempDir(), "live.kv")
				s := openStore(t, path)
				if err := core.NewFromDocument(base, nil).SaveIndexWithDocument(s); err != nil {
					t.Fatal(err)
				}
				live, err := core.OpenLive(s, "", nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := live.Apply(batch); err != nil {
					t.Fatal(err)
				}
				answersLike(t, "live", server.New(live, server.Config{}), want, c.queries)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s = openStore(t, path)
				defer s.Close()
				eng, err := core.Open(s, nil)
				if err != nil {
					t.Fatal(err)
				}
				answersLike(t, "reopened after apply", server.New(eng, server.Config{}), want, c.queries)
			})

			t.Run("shards", func(t *testing.T) {
				dir := t.TempDir()
				if _, err := WriteStores(doc, dir, 2, ModeRange); err != nil {
					t.Fatal(err)
				}
				r, err := Open(dir, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				answersLike(t, "router", server.New(r, server.Config{}), ref, c.queries)
			})
		})
	}
}

// TestOverlongWordFindsItself holds the term-length cut: Build and
// BuildStream index a 2 000-letter word as its 255-byte prefix, and a query
// that spells the whole word finds it. The long-token case of
// TestBigValuesPersist carries such a word through a save, a reopen, a
// live insert and a shard split.
func TestOverlongWordFindsItself(t *testing.T) {
	word := strings.Repeat("q", 2000)
	term := word[:tokenize.MaxTermBytes]
	xml := "<dblp><note>" + word + " alpha</note><note>beta</note></dblp>"
	doc, err := xmltree.ParseString(xml, nil)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := index.BuildStream(strings.NewReader(xml), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*index.Index{"Build": index.Build(doc), "BuildStream": streamed} {
		if l, err := ix.List(term); err != nil || l.Len() != 1 {
			t.Fatalf("%s: the cut term's list is %v (%v), want 1 posting", name, l, err)
		}
		if l, err := ix.List(word); err != nil || l.Len() != 0 {
			t.Fatalf("%s: the uncut word has a list %v (%v)", name, l, err)
		}
	}
	ref := server.New(core.NewFromDocument(doc, nil), server.Config{})
	answersLike(t, "in memory", ref, ref, []string{word, word + " alpha"})
}
