package core

import (
	"testing"

	"xrefine/internal/tokenize"
	"xrefine/internal/xmltree"
)

// FuzzQueryPipeline throws arbitrary query strings at a fixed engine: the
// whole pipeline (tokenizer, rule generation including BK-tree probes, DP,
// partition scan, ranking) must never panic, and every reported result
// must be non-root with a positive result count when NeedRefine is false.
func FuzzQueryPipeline(f *testing.F) {
	doc, err := xmltree.ParseString(`
<bib>
  <author><name>John Ben</name><publications>
    <paper><title>online database systems</title><year>2003</year></paper>
    <paper><title>efficient keyword search</title><year>2005</year></paper>
  </publications></author>
  <author><name>Mary Lee</name><publications>
    <paper><title>matching twig patterns</title><year>2006</year></paper>
  </publications></author>
</bib>`, nil)
	if err != nil {
		f.Fatal(err)
	}
	eng := NewFromDocument(doc, nil)
	f.Add("online database")
	f.Add("databse")
	f.Add("ONLINE, data-base!!")
	f.Add("日本語 query")
	f.Add("a b c d e f g h i j k l m n o p")
	f.Add("    ")
	f.Add("\x00\x01\x02")
	f.Fuzz(func(t *testing.T, q string) {
		terms := tokenize.Query(q)
		if len(terms) == 0 {
			return
		}
		if len(terms) > 8 {
			terms = terms[:8] // keyword queries; cap the DP width
		}
		resp, err := queryTerms(eng, terms, 2)
		if err != nil {
			t.Fatalf("%q: %v", terms, err)
		}
		if !resp.NeedRefine && (len(resp.Queries) == 0 || len(resp.Queries[0].Results) == 0) {
			t.Fatalf("%q: satisfied without results", terms)
		}
		for _, rq := range resp.Queries {
			for _, m := range rq.Results {
				if len(m.ID) < 2 {
					t.Fatalf("%q: root returned as result", terms)
				}
			}
		}
	})
}
