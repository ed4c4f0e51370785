package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"xrefine/internal/datagen"
	"xrefine/internal/index"
	"xrefine/internal/mutate"
	"xrefine/internal/shard"
	"xrefine/internal/storage"
	"xrefine/internal/storage/backends"
	"xrefine/internal/tokenize"
	"xrefine/internal/xmltree"
)

// corpus is one generated document with its index, plus what building it
// cost.
type corpus struct {
	xmlBytes int
	doc      *xmltree.Document
	ix       *index.Index

	parseMs, buildMs float64
	// docMB is the heap the parsed tree holds; measured only when asked,
	// since it needs two forced collections.
	docMB float64
}

// parseCorpus generates the DBLP document at scale and parses it.
func parseCorpus(scale float64, measureHeap bool) (*corpus, error) {
	authors := int(fullAuthors * scale)
	if authors < 20 {
		authors = 20
	}
	var sb strings.Builder
	if err := datagen.DBLP(&sb, datagen.DBLPConfig{Authors: authors, Seed: corpusSeed}); err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	c := &corpus{xmlBytes: sb.Len()}
	var before runtime.MemStats
	if measureHeap {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	t := time.Now()
	doc, err := xmltree.ParseString(sb.String(), nil)
	if err != nil {
		return nil, fmt.Errorf("parse corpus: %w", err)
	}
	c.doc, c.parseMs = doc, ms(time.Since(t))
	if measureHeap {
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		c.docMB = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	}
	return c, nil
}

// buildCorpus is parseCorpus plus the index.
func buildCorpus(scale float64, measureHeap bool) (*corpus, error) {
	c, err := parseCorpus(scale, measureHeap)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	c.ix = index.Build(c.doc)
	c.buildMs = ms(time.Since(t))
	return c, nil
}

// info is the corpus's size as the provenance block records it.
func (c *corpus) info() corpusInfo {
	return corpusInfo{Nodes: c.doc.NodeCount, Vocabulary: len(c.ix.Vocabulary()), XMLBytes: c.xmlBytes}
}

// saveStore writes the index and its document into a new store of the
// given engine kind and closes it.
func (c *corpus) saveStore(kind storage.Kind, path string) error {
	st, err := backends.Open(kind, path, nil)
	if err != nil {
		return fmt.Errorf("create %s store: %w", kind, err)
	}
	if err := xmltree.SaveDocument(c.doc, st); err != nil {
		st.Close()
		return fmt.Errorf("save document: %w", err)
	}
	if err := c.ix.Save(st); err != nil {
		st.Close()
		return fmt.Errorf("save index: %w", err)
	}
	return st.Close()
}

// deployment is the on-disk state one xserve boots from.
type deployment struct {
	// root holds every file of the deployment; its size is the disk
	// footprint.
	root string
	// args are the xserve flags naming the store(s), without addresses.
	args []string
}

// deploy writes the stores workload w serves from under dir.
func deploy(w workload, c *corpus, dir string, live bool) (*deployment, error) {
	d := &deployment{root: filepath.Join(dir, "store")}
	if err := os.MkdirAll(d.root, 0o755); err != nil {
		return nil, err
	}
	if w.shards > 0 {
		if _, err := shard.WriteReplicatedStores(c.doc, d.root, w.shards, shard.ModeRange, w.replicas); err != nil {
			return nil, fmt.Errorf("write shard stores: %w", err)
		}
		d.args = []string{"-shards", d.root}
	} else {
		store := filepath.Join(d.root, "index.kv")
		if err := c.saveStore(storage.KindBTree, store); err != nil {
			return nil, err
		}
		d.args = []string{"-index", store}
	}
	if live {
		d.args = append(d.args, "-live")
	}
	return d, nil
}

// diskBytes sums the regular files under root.
func diskBytes(root string) (int64, error) {
	var n int64
	err := filepath.Walk(root, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// request is one read: the query string a user typed, and its terms as
// both surfaces normalize them.
type request struct {
	q     string
	terms []string
}

func newRequest(corrupted []string) request {
	q := strings.Join(corrupted, " ")
	return request{q: q, terms: tokenize.Query(q)}
}

// genRequests draws n reads for w from seed. Distinct-query workloads take
// the Table VIII corruption mix straight from datagen.Workload (typo,
// split, merge, mismatch, restrict uniform; one operation per query;
// intended length 2–4). repeat_zipf draws its pool with the corpus seed
// and only the Zipf sequence with seed: three queries carry 40 % of the
// requests, so a per-seed pool would move every metric by a quarter from
// one seed to the next and no bound could hold.
func genRequests(w workload, c *corpus, seed int64, n int) ([]request, error) {
	if w.zipfPool == 0 {
		cases, err := datagen.Workload(c.doc, datagen.WorkloadConfig{Seed: seed, Queries: n})
		if err != nil {
			return nil, err
		}
		reqs := make([]request, len(cases))
		for i, cs := range cases {
			reqs[i] = newRequest(cs.Corrupted)
		}
		return reqs, nil
	}
	cases, err := datagen.Workload(c.doc, datagen.WorkloadConfig{Seed: corpusSeed, Queries: w.zipfPool})
	if err != nil {
		return nil, err
	}
	pool := make([]request, len(cases))
	for i, cs := range cases {
		pool[i] = newRequest(cs.Corrupted)
	}
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, uint64(len(pool)-1))
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = pool[z.Uint64()]
	}
	return reqs, nil
}

// sentinelTerm is a keyword no generated document contains; the last
// update batch of a round inserts it, and the durability check queries it
// after the kill-restart.
func sentinelTerm(seed int64, round int) string {
	return fmt.Sprintf("zqbench%dr%d", seed, round)
}

// genUpdates derives batches-1 batches of ops operations that apply in
// order to the corpus document at scale, then one batch inserting the
// sentinel author (on its own, so that it is the last thing acknowledged).
// It parses a document of its own: datagen.Updates interns the inserted
// fragments' node types into the document's registry, after which an index
// sharing that registry no longer saves cleanly.
func genUpdates(scale float64, seed int64, round, batches, ops int) ([]*mutate.Batch, error) {
	if batches < 2 {
		batches = 2
	}
	c, err := parseCorpus(scale, false)
	if err != nil {
		return nil, err
	}
	bs, err := datagen.Updates(c.doc, datagen.UpdatesConfig{Batches: batches - 1, Ops: ops, Seed: seed*1000 + int64(round)})
	if err != nil {
		return nil, err
	}
	return append(bs, &mutate.Batch{Ops: []mutate.Op{{
		Kind:   mutate.OpInsert,
		Parent: c.doc.Root.ID,
		XML:    "<author><name>" + sentinelTerm(seed, round) + "</name></author>",
	}}}), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
