// Package experiments reproduces every table and figure of the paper's
// Section VIII on the synthetic substrate: one runner per experiment, each
// returning plain row structs that cmd/xbench renders and the benchmark
// harness times. DESIGN.md carries the experiment index mapping each
// runner back to the paper.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/index"
	"xrefine/internal/xmltree"
)

// FullDBLPAuthors is the author count of the 100% synthetic DBLP corpus;
// Figure 6 scales it down to 20%.
const FullDBLPAuthors = 2000

// Corpus is a generated dataset with its index and a default engine.
type Corpus struct {
	Name   string
	Doc    *xmltree.Document
	Index  *index.Index
	Engine *core.Engine
}

var (
	corpusMu    sync.Mutex
	corpusCache = map[string]*Corpus{}
)

// DBLPCorpus builds (and caches) the DBLP-like corpus at a fraction of the
// full size; scale 1.0 is the full corpus.
func DBLPCorpus(scale float64) (*Corpus, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("experiments: scale %v out of (0,1]", scale)
	}
	name := fmt.Sprintf("dblp-%.0f%%", scale*100)
	return cached(name, func() (*Corpus, error) {
		doc, err := datagen.DBLPDocument(datagen.DBLPConfig{
			Authors: int(float64(FullDBLPAuthors) * scale),
			Seed:    42,
		})
		if err != nil {
			return nil, err
		}
		return newCorpus(name, doc), nil
	})
}

// BaseballCorpus builds (and caches) the Baseball-like corpus.
func BaseballCorpus() (*Corpus, error) {
	return cached("baseball", func() (*Corpus, error) {
		doc, err := datagen.BaseballDocument(datagen.BaseballConfig{Teams: 30, Seed: 42})
		if err != nil {
			return nil, err
		}
		return newCorpus("baseball", doc), nil
	})
}

func cached(name string, build func() (*Corpus, error)) (*Corpus, error) {
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if c, ok := corpusCache[name]; ok {
		return c, nil
	}
	c, err := build()
	if err != nil {
		return nil, err
	}
	corpusCache[name] = c
	return c, nil
}

func newCorpus(name string, doc *xmltree.Document) *Corpus {
	ix := index.Build(doc)
	return &Corpus{
		Name:   name,
		Doc:    doc,
		Index:  ix,
		Engine: core.NewFromIndex(ix, nil),
	}
}

// query answers a pre-tokenized query on eng at K=k.
func query(eng *core.Engine, terms []string, k int) (*core.Response, error) {
	return eng.QueryTermsCtx(context.Background(), terms, core.StrategyPartition, k, 0)
}

// Workload samples a corruption workload over the corpus.
func (c *Corpus) Workload(cfg datagen.WorkloadConfig) ([]datagen.Case, error) {
	return datagen.Workload(c.Doc, cfg)
}
