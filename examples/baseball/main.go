// Baseball statistics search: queries over the second evaluation dataset's
// schema (season/league/division/team/players/player). Demonstrates
// search-for inference picking between team- and player-level targets, and
// domain synonyms/acronyms from the builtin lexicon (homers ~ homeruns,
// avg ~ average).
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"xrefine"
	"xrefine/internal/datagen"
)

func main() {
	var b strings.Builder
	if err := datagen.Baseball(&b, datagen.BaseballConfig{Teams: 30, Seed: 11}); err != nil {
		log.Fatal(err)
	}
	doc, err := xrefine.ParseXML(strings.NewReader(b.String()))
	if err != nil {
		log.Fatal(err)
	}
	eng := xrefine.NewFromDocument(doc, &xrefine.Config{TopK: 3})

	queries := []string{
		"boston pitcher",            // clean: players of one team
		"pitcher homers",            // synonym: data says "homeruns"
		"short stop chicago",        // mistaken split of "shortstop"
		"centerfield atlanta texas", // over-restrictive: two cities
		"catchr tigers",             // typo
	}
	for _, q := range queries {
		fmt.Printf("> %s\n", q)
		resp, err := eng.QueryTermsCtx(context.Background(), xrefine.Tokenize(q), xrefine.StrategyPartition, 0, 0)
		if err != nil {
			log.Fatal(err)
		}
		if len(resp.SearchFor) > 0 {
			var tags []string
			for _, c := range resp.SearchFor {
				tags = append(tags, c.Type.Tag)
			}
			fmt.Printf("  search target: %s\n", strings.Join(tags, ", "))
		}
		if !resp.NeedRefine {
			q0 := resp.Queries[0]
			fmt.Printf("  %d direct result(s)\n", len(q0.Results))
			preview(doc, q0, 3)
			fmt.Println()
			continue
		}
		for i, rq := range resp.Queries {
			fmt.Printf("  %d. {%s} dSim=%.1f (%d results)\n",
				i+1, strings.Join(rq.Keywords, " "), rq.DSim, len(rq.Results))
			if i == 0 {
				preview(doc, rq, 3)
			}
		}
		fmt.Println()
	}
}

func preview(doc *xrefine.Document, q xrefine.RankedQuery, max int) {
	for i, m := range q.Results {
		if i == max {
			fmt.Printf("     ... %d more\n", len(q.Results)-max)
			return
		}
		fmt.Printf("     %s\n", xrefine.Snippet(doc, m, 60))
	}
}
