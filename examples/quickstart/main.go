// Quickstart: index a small bibliography and watch the engine repair a
// query with a typo, a mistaken split and a vocabulary mismatch — the
// smallest end-to-end tour of the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"xrefine"
)

const bibliography = `
<bib>
  <author>
    <name>John Ben</name>
    <publications>
      <inproceedings>
        <title>online database systems</title>
        <booktitle>sigmod</booktitle>
        <year>2003</year>
      </inproceedings>
      <inproceedings>
        <title>efficient keyword search in xml trees</title>
        <booktitle>vldb</booktitle>
        <year>2005</year>
      </inproceedings>
    </publications>
  </author>
  <author>
    <name>Mary Lee</name>
    <publications>
      <article>
        <title>matching twig patterns with skyline computation</title>
        <journal>tods</journal>
        <year>2006</year>
      </article>
    </publications>
    <hobby>swimming</hobby>
  </author>
</bib>`

func main() {
	eng, err := xrefine.NewFromXML(strings.NewReader(bibliography), nil)
	if err != nil {
		log.Fatal(err)
	}
	doc, err := xrefine.ParseXML(strings.NewReader(bibliography))
	if err != nil {
		log.Fatal(err)
	}

	for _, query := range []string{
		"online database",           // clean query: matches directly
		"online databse",            // spelling error
		"efficient key word search", // mistaken split
		"database publication",      // vocabulary mismatch (Example 1 of the paper)
		"xml john swimming 2003",    // over-restrictive
	} {
		fmt.Printf("\n> %s\n", query)
		resp, err := eng.QueryTermsCtx(context.Background(), xrefine.Tokenize(query), xrefine.StrategyPartition, 0, 0)
		if err != nil {
			log.Fatal(err)
		}
		if !resp.NeedRefine {
			q := resp.Queries[0]
			fmt.Printf("  matches as-is: %d result(s)\n", len(q.Results))
			for _, m := range q.Results {
				fmt.Printf("    %s\n", xrefine.Snippet(doc, m, 70))
			}
			continue
		}
		fmt.Println("  no meaningful result; suggested refinements:")
		for i, rq := range resp.Queries {
			fmt.Printf("  %d. {%s}  dSim=%.1f rank=%.3f (%d results)\n",
				i+1, strings.Join(rq.Keywords, ", "), rq.DSim, rq.Score, len(rq.Results))
			for _, m := range rq.Results {
				fmt.Printf("     %s\n", xrefine.Snippet(doc, m, 70))
			}
		}
	}
}
