package refine_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xrefine/internal/datagen"
	"xrefine/internal/experiments"
	"xrefine/internal/index"
	"xrefine/internal/lexicon"
	"xrefine/internal/refine"
	"xrefine/internal/rules"
	"xrefine/internal/searchfor"
)

var updateWalkGolden = flag.Bool("update", false, "rewrite testdata/walk_counts.golden")

// walkCorpus is the seeded corpus the walk's contract is checked on: the
// DBLP-like corpus at a fifth of full scale.
func walkCorpus(t testing.TB) *experiments.Corpus {
	t.Helper()
	c, err := experiments.DBLPCorpus(0.2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// frequentTerms returns the n most frequent indexed terms — queries over
// them have the longest lists and are guaranteed to split the walk on the
// test corpus.
func frequentTerms(c *experiments.Corpus, n int) []string {
	vocab := c.Index.Vocabulary()
	sort.SliceStable(vocab, func(a, b int) bool {
		return c.Index.ListLen(vocab[a]) > c.Index.ListLen(vocab[b])
	})
	if len(vocab) > n {
		vocab = vocab[:n]
	}
	return vocab
}

// walkQueries is the generated Table-VIII workload plus frequent-term
// queries that engage the range split.
func walkQueries(t testing.TB, c *experiments.Corpus) [][]string {
	t.Helper()
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 909, Queries: 30})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]string, 0, len(batch)+4)
	for _, cs := range batch {
		queries = append(queries, cs.Corrupted)
	}
	freq := frequentTerms(c, 4)
	return append(queries,
		freq[:2], freq[1:3], freq[:3], append([]string{"databse"}, freq[2:4]...))
}

// prepareInput builds the refinement input the way a default-configured
// engine prepares a query: rules from the builtin lexicon, search-for
// inference over the query plus the rule-generated keywords.
func prepareInput(t testing.TB, ix *index.Index, terms []string) refine.Input {
	t.Helper()
	rs, err := rules.Generator{Lexicon: lexicon.Builtin()}.Generate(ix, terms)
	if err != nil {
		t.Fatalf("rules %v: %v", terms, err)
	}
	infer := append(append([]string(nil), terms...), rs.NewKeywords(terms)...)
	judge := searchfor.NewJudge(searchfor.Infer(ix, infer, nil))
	return refine.Input{Index: ix, Query: terms, Rules: rs, Judge: judge, Parallelism: 1}
}

// TestOneRangeCountsGolden pins the work counts of the one-range walk to
// those of the sequential walk it replaced: testdata/walk_counts.golden was
// written by the sequential partitionTopKSeq, and the one-range scan →
// merge must visit, generate, prune and hand SLCA exactly the same.
func TestOneRangeCountsGolden(t *testing.T) {
	c := walkCorpus(t)
	var b strings.Builder
	for _, k := range []int{1, 3, 10} {
		for _, terms := range walkQueries(t, c) {
			out, err := refine.PartitionTopK(prepareInput(t, c.Index, terms), k)
			if err != nil {
				t.Fatalf("k=%d %v: %v", k, terms, err)
			}
			fmt.Fprintf(&b, "k=%d q=%s partitions=%d rq_generated=%d rq_pruned=%d slca_calls=%d slca_postings=%d\n",
				k, strings.Join(terms, "+"), out.Partitions, out.RQGenerated, out.RQPruned, out.SLCACalls, out.SLCAPostings)
		}
	}
	path := filepath.Join("testdata", "walk_counts.golden")
	if *updateWalkGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("one-range walk counts drifted from the sequential walk's:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWalkDecodesEachBlockOnce is Theorem 2 as a count: a one-scan walk
// reads each keyword list in a single forward pass, so the postings it
// decodes never exceed the scan keywords' total list length. It reads
// the index package's global codec counters, so it must not run beside
// another test (no t.Parallel).
func TestWalkDecodesEachBlockOnce(t *testing.T) {
	c := walkCorpus(t)
	var decoded, held uint64
	for _, k := range []int{1, 3, 10} {
		for _, terms := range walkQueries(t, c) {
			in := prepareInput(t, c.Index, terms)
			total := 0
			for _, kw := range in.ScanKeywords() {
				total += c.Index.ListLen(kw)
			}
			before := index.BlockStats().DecodedPostings
			if _, err := refine.PartitionTopK(in, k); err != nil {
				t.Fatal(err)
			}
			got := index.BlockStats().DecodedPostings - before
			if got > uint64(total) {
				t.Errorf("k=%d q=%s: decoded %d postings, the scan lists hold %d", k, strings.Join(terms, "+"), got, total)
			}
			decoded += got
			held += uint64(total)
		}
	}
	t.Logf("decoded %d postings over lists holding %d", decoded, held)
}
