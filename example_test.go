package xrefine_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"xrefine"
)

const exampleDoc = `
<bib>
  <author>
    <name>John Ben</name>
    <publications>
      <inproceedings><title>online database systems</title><year>2003</year></inproceedings>
      <inproceedings><title>efficient keyword search</title><year>2005</year></inproceedings>
    </publications>
  </author>
</bib>`

// The engine answers a clean query directly.
func ExampleEngine_QueryTermsCtx() {
	eng, err := xrefine.NewFromXML(strings.NewReader(exampleDoc), nil)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := eng.QueryTermsCtx(context.Background(), xrefine.Tokenize("online database"), xrefine.StrategyPartition, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("needs refinement:", resp.NeedRefine)
	fmt.Println("results:", len(resp.Queries[0].Results))
	// Output:
	// needs refinement: false
	// results: 1
}

// A misspelled query is refined automatically: the engine returns the
// corrected query together with its matches.
func ExampleEngine_QueryTermsCtx_refinement() {
	eng, err := xrefine.NewFromXML(strings.NewReader(exampleDoc), nil)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := eng.QueryTermsCtx(context.Background(), xrefine.Tokenize("online databse"), xrefine.StrategyPartition, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("needs refinement:", resp.NeedRefine)
	best := resp.Queries[0]
	fmt.Printf("suggestion: %s (dSim %.0f, %d results)\n",
		strings.Join(best.Keywords, " "), best.DSim, len(best.Results))
	// Output:
	// needs refinement: true
	// suggestion: database online (dSim 1, 1 results)
}

// Tokenize exposes the engine's query normalization.
func ExampleTokenize() {
	fmt.Println(xrefine.Tokenize("On-Line, DATA base"))
	// Output:
	// [online data base]
}
