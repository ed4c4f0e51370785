// Sponsored search: the application scenario the paper's introduction
// motivates — matching an enormous stream of free-form user queries
// against a much smaller corpus of XML-formatted advertising listings.
// Most queries miss the small corpus's vocabulary; automatic refinement
// rescues them instead of showing no ad at all.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"xrefine"
)

// A compact advertising corpus: each listing is one entity.
const ads = `
<listings>
  <ad>
    <brand>acme</brand>
    <product>running shoes</product>
    <category>sports footwear</category>
    <price>89</price>
    <keywords>marathon trail lightweight running</keywords>
  </ad>
  <ad>
    <brand>northpeak</brand>
    <product>hiking boots</product>
    <category>outdoor footwear</category>
    <price>149</price>
    <keywords>waterproof mountain trekking boots</keywords>
  </ad>
  <ad>
    <brand>velocity</brand>
    <product>road bike</product>
    <category>cycling</category>
    <price>899</price>
    <keywords>carbon racing bicycle lightweight</keywords>
  </ad>
  <ad>
    <brand>aquafit</brand>
    <product>swimming goggles</product>
    <category>swim gear</category>
    <price>25</price>
    <keywords>pool training anti fog goggles</keywords>
  </ad>
  <ad>
    <brand>trailblaze</brand>
    <product>camping tent</product>
    <category>outdoor equipment</category>
    <price>219</price>
    <keywords>two person waterproof hiking camping</keywords>
  </ad>
</listings>`

func main() {
	// Sponsored search wants high recall on a tiny corpus, so allow
	// slightly more aggressive spelling correction and show more
	// refinement options.
	cfg := &xrefine.Config{TopK: 3}
	cfg.Rules.MaxEditDistance = 2
	cfg.Rules.MaxSpellingCandidates = 4
	eng, err := xrefine.NewFromXML(strings.NewReader(ads), cfg)
	if err != nil {
		log.Fatal(err)
	}
	doc, err := xrefine.ParseXML(strings.NewReader(ads))
	if err != nil {
		log.Fatal(err)
	}

	// The incoming query stream, realistically messy.
	stream := []string{
		"runing shoes",          // typo
		"water proof boots",     // mistaken split
		"racingbicycle",         // mistaken merge
		"swiming gogles",        // double typo
		"tent waterproof cheap", // "cheap" matches nothing
		"carbon road bike",      // clean
	}
	for _, q := range stream {
		fmt.Printf("> %s\n", q)
		resp, err := eng.QueryTermsCtx(context.Background(), xrefine.Tokenize(q), xrefine.StrategyPartition, 0, 0)
		if err != nil {
			log.Fatal(err)
		}
		if !resp.NeedRefine {
			show(doc, "direct match", resp.Queries[0])
			fmt.Println()
			continue
		}
		if len(resp.Queries) == 0 {
			fmt.Println("  no ad to show")
			fmt.Println()
			continue
		}
		for _, rq := range resp.Queries {
			show(doc, fmt.Sprintf("refined to {%s} (dSim %.1f)", strings.Join(rq.Keywords, " "), rq.DSim), rq)
		}
		fmt.Println()
	}
}

func show(doc *xrefine.Document, label string, q xrefine.RankedQuery) {
	fmt.Printf("  %s -> %d ad(s)\n", label, len(q.Results))
	for _, m := range q.Results {
		fmt.Printf("     %s\n", xrefine.Snippet(doc, m, 70))
	}
}
