package xrefine_test

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"xrefine"
	"xrefine/internal/datagen"
	"xrefine/internal/server"
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

const quickstartDoc = `
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

// A compact advertising corpus: each listing is one entity.
const sponsoredAds = `
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

// The sports, outdoor and cycling feeds, in partition order.
var federatedFeeds = []string{
	`<feed>
  <ad><product>running shoes</product><keywords>marathon lightweight</keywords></ad>
  <ad><product>tennis racket</product><keywords>carbon graphite</keywords></ad>
</feed>`,
	`<feed>
  <ad><product>hiking boots</product><keywords>waterproof mountain</keywords></ad>
  <ad><product>camping tent</product><keywords>two person waterproof</keywords></ad>
</feed>`,
	`<feed>
  <ad><product>road bike</product><keywords>carbon racing bicycle</keywords></ad>
  <ad><product>bike helmet</product><keywords>ventilated lightweight</keywords></ad>
</feed>`,
}

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

// Quickstart: index a small bibliography and watch the engine repair a
// query with a typo, a mistaken split, a vocabulary mismatch and an
// over-restriction — the smallest end-to-end tour of the public API.
func Example_quickstart() {
	eng, err := xrefine.NewFromXML(strings.NewReader(quickstartDoc), nil)
	if err != nil {
		log.Fatal(err)
	}
	doc := eng.Document()
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
	// Output:
	// > online database
	//   matches as-is: 1 result(s)
	//     title:0.0.1.0.0 "online database systems"
	//
	// > online databse
	//   no meaningful result; suggested refinements:
	//   1. {database, online}  dSim=1.0 rank=1.637 (1 results)
	//      title:0.0.1.0.0 "online database systems"
	//   2. {online}  dSim=2.0 rank=0.022 (1 results)
	//      title:0.0.1.0.0 "online database systems"
	//   3. {database}  dSim=3.0 rank=0.018 (1 results)
	//      title:0.0.1.0.0 "online database systems"
	//
	// > efficient key word search
	//   no meaningful result; suggested refinements:
	//   1. {efficient, keyword, search}  dSim=1.0 rank=2.999 (1 results)
	//      title:0.0.1.1.0 "efficient keyword search in xml trees"
	//   2. {ben, efficient, search}  dSim=4.0 rank=2.935 (1 results)
	//      author:0.0 "John Ben online database systems sigmod 2003 efficient keyword search …"
	//   3. {efficient, keyword}  dSim=3.0 rank=1.490 (1 results)
	//      title:0.0.1.1.0 "efficient keyword search in xml trees"
	//
	// > database publication
	//   no meaningful result; suggested refinements:
	//   1. {database, inproceedings}  dSim=1.0 rank=2.715 (1 results)
	//      inproceedings:0.0.1.0 "online database systems sigmod 2003"
	//   2. {database, publications}  dSim=1.0 rank=2.069 (1 results)
	//      publications:0.0.1 "online database systems sigmod 2003 efficient keyword search in xml tr…"
	//   3. {inproceedings}  dSim=3.0 rank=0.057 (2 results)
	//      inproceedings:0.0.1.0 "online database systems sigmod 2003"
	//      inproceedings:0.0.1.1 "efficient keyword search in xml trees vldb 2005"
	//
	// > xml john swimming 2003
	//   no meaningful result; suggested refinements:
	//   1. {2003, john, xml}  dSim=2.0 rank=2.575 (1 results)
	//      author:0.0 "John Ben online database systems sigmod 2003 efficient keyword search …"
	//   2. {2003, john}  dSim=4.0 rank=1.288 (1 results)
	//      author:0.0 "John Ben online database systems sigmod 2003 efficient keyword search …"
	//   3. {2003, xml}  dSim=4.0 rank=1.288 (1 results)
	//      publications:0.0.1 "online database systems sigmod 2003 efficient keyword search in xml tr…"
}

// Sponsored search: the scenario the paper's introduction motivates —
// free-form user queries matched against a small corpus of XML ad
// listings. Most queries miss the corpus vocabulary; refinement rescues
// them instead of showing no ad at all.
func Example_sponsored() {
	// High recall on a tiny corpus: slightly more aggressive spelling
	// correction and more refinement options.
	cfg := &xrefine.Config{TopK: 3}
	cfg.Rules.MaxEditDistance = 2
	cfg.Rules.MaxSpellingCandidates = 4
	eng, err := xrefine.NewFromXML(strings.NewReader(sponsoredAds), cfg)
	if err != nil {
		log.Fatal(err)
	}
	doc := eng.Document()
	show := func(label string, q xrefine.RankedQuery) {
		fmt.Printf("  %s -> %d ad(s)\n", label, len(q.Results))
		for _, m := range q.Results {
			fmt.Printf("     %s\n", xrefine.Snippet(doc, m, 70))
		}
	}
	for _, q := range []string{
		"runing shoes",          // typo
		"water proof boots",     // mistaken split
		"racingbicycle",         // mistaken merge
		"swiming gogles",        // double typo
		"tent waterproof cheap", // "cheap" matches nothing
		"carbon road bike",      // clean
	} {
		fmt.Printf("> %s\n", q)
		resp, err := eng.QueryTermsCtx(context.Background(), xrefine.Tokenize(q), xrefine.StrategyPartition, 0, 0)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case !resp.NeedRefine:
			show("direct match", resp.Queries[0])
		case len(resp.Queries) == 0:
			fmt.Println("  no ad to show")
		default:
			for _, rq := range resp.Queries {
				show(fmt.Sprintf("refined to {%s} (dSim %.1f)", strings.Join(rq.Keywords, " "), rq.DSim), rq)
			}
		}
		fmt.Println()
	}
	// Output:
	// > runing shoes
	//   refined to {running shoes} (dSim 1.0) -> 1 ad(s)
	//      product:0.0.1 "running shoes"
	//   refined to {running} (dSim 3.0) -> 2 ad(s)
	//      product:0.0.1 "running shoes"
	//      keywords:0.0.4 "marathon trail lightweight running"
	//   refined to {racing} (dSim 4.0) -> 1 ad(s)
	//      keywords:0.2.4 "carbon racing bicycle lightweight"
	//
	// > water proof boots
	//   refined to {boots waterproof} (dSim 1.0) -> 1 ad(s)
	//      keywords:0.1.4 "waterproof mountain trekking boots"
	//   refined to {waterproof} (dSim 3.0) -> 2 ad(s)
	//      keywords:0.1.4 "waterproof mountain trekking boots"
	//      keywords:0.4.4 "two person waterproof hiking camping"
	//   refined to {boots} (dSim 4.0) -> 2 ad(s)
	//      product:0.1.1 "hiking boots"
	//      keywords:0.1.4 "waterproof mountain trekking boots"
	//
	// > racingbicycle
	//   refined to {bicycle racing} (dSim 1.0) -> 1 ad(s)
	//      keywords:0.2.4 "carbon racing bicycle lightweight"
	//
	// > swiming gogles
	//   refined to {goggles swimming} (dSim 2.0) -> 1 ad(s)
	//      product:0.3.1 "swimming goggles"
	//   refined to {goggles} (dSim 3.0) -> 2 ad(s)
	//      product:0.3.1 "swimming goggles"
	//      keywords:0.3.4 "pool training anti fog goggles"
	//   refined to {swimming} (dSim 3.0) -> 1 ad(s)
	//      product:0.3.1 "swimming goggles"
	//
	// > tent waterproof cheap
	//   refined to {tent waterproof} (dSim 2.0) -> 1 ad(s)
	//      ad:0.4 "trailblaze camping tent outdoor equipment 219 two person waterproof hi…"
	//   refined to {waterproof} (dSim 4.0) -> 2 ad(s)
	//      keywords:0.1.4 "waterproof mountain trekking boots"
	//      keywords:0.4.4 "two person waterproof hiking camping"
	//   refined to {tent} (dSim 4.0) -> 1 ad(s)
	//      product:0.4.1 "camping tent"
	//
	// > carbon road bike
	//   direct match -> 1 ad(s)
	//      ad:0.2 "velocity road bike cycling 899 carbon racing bicycle lightweight"
}

// Baseball statistics: queries over the second evaluation dataset's
// schema (season/league/division/team/players/player). Search-for
// inference picks between team- and player-level targets, and the
// builtin lexicon supplies domain synonyms (homers ~ homeruns).
func Example_baseball() {
	var b strings.Builder
	if err := datagen.Baseball(&b, datagen.BaseballConfig{Teams: 30, Seed: 11}); err != nil {
		log.Fatal(err)
	}
	doc, err := xrefine.ParseXML(strings.NewReader(b.String()))
	if err != nil {
		log.Fatal(err)
	}
	eng := xrefine.NewFromDocument(doc, &xrefine.Config{TopK: 3})
	preview := func(q xrefine.RankedQuery, max int) {
		for i, m := range q.Results {
			if i == max {
				fmt.Printf("     ... %d more\n", len(q.Results)-max)
				return
			}
			fmt.Printf("     %s\n", xrefine.Snippet(doc, m, 60))
		}
	}
	for _, q := range []string{
		"boston pitcher",            // clean: players of one team
		"pitcher homers",            // synonym: data says "homeruns"
		"short stop chicago",        // mistaken split of "shortstop"
		"centerfield atlanta texas", // over-restrictive: two cities
		"catchr tigers",             // typo
	} {
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
			fmt.Printf("  %d direct result(s)\n", len(resp.Queries[0].Results))
			preview(resp.Queries[0], 3)
		} else {
			for i, rq := range resp.Queries {
				fmt.Printf("  %d. {%s} dSim=%.1f (%d results)\n",
					i+1, strings.Join(rq.Keywords, " "), rq.DSim, len(rq.Results))
				if i == 0 {
					preview(rq, 3)
				}
			}
		}
		fmt.Println()
	}
	// Output:
	// > boston pitcher
	//   search target: player, team, division
	//   2 direct result(s)
	//      team:0.0.1.1 "boston redsox li chen leftfield 214 25 karen liu thirdbase 2…"
	//      team:0.1.2.3 "boston redsox kenji garcia thirdbase 339 44 raj brown second…"
	//
	// > pitcher homers
	//   search target: player, team, division
	//   1. {homeruns player} dSim=3.0 (597 results)
	//      player:0.0.1.1.2.0 "li chen leftfield 214 25"
	//      player:0.0.1.1.2.1 "karen liu thirdbase 288 29"
	//      player:0.0.1.1.2.2 "karen mueller secondbase 206 44"
	//      ... 594 more
	//   2. {homeruns pitcher} dSim=1.0 (61 results)
	//   3. {homeruns} dSim=3.0 (597 results)
	//
	// > short stop chicago
	//   search target: team, division
	//   1. {chicago shortstop} dSim=1.0 (2 results)
	//      team:0.0.1.2 "chicago whitesox ingrid davis thirdbase 294 10 ingrid smith …"
	//      team:0.1.2.4 "chicago whitesox kenji chen thirdbase 226 10 mary zhang thir…"
	//   2. {shortstop} dSim=3.0 (64 results)
	//   3. {chicago} dSim=4.0 (2 results)
	//
	// > centerfield atlanta texas
	//   search target: team, division, league
	//   1 direct result(s)
	//      league:0.0 "american east boston redsox li chen leftfield 214 25 karen l…"
	//
	// > catchr tigers
	//   search target: team, division, player
	//   1. {catcher tigers} dSim=1.0 (2 results)
	//      division:0.0.1 "east boston redsox li chen leftfield 214 25 karen liu thirdb…"
	//      team:0.1.2.5 "detroit tigers xin lu firstbase 204 27 robert gray secondbas…"
	//   2. {catcher} dSim=3.0 (50 results)
	//   3. {tigers} dSim=2.0 (2 results)
}

// Narrowing: the other extreme the paper's conclusion points at — a
// query with far too many results. The engine mines discriminative
// co-occurring terms from the flood and proposes tightened queries that
// still have meaningful matches.
func ExampleEngine_Narrow() {
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 600, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	eng := xrefine.NewFromDocument(doc, nil)
	for _, q := range []string{
		"database",            // floods: the most common title word
		"query processing",    // still broad
		"skyline computation", // already specific
	} {
		fmt.Printf("> %s\n", q)
		out, err := eng.Narrow(context.Background(), q, &xrefine.NarrowOptions{MaxResults: 40, TopK: 4, TargetResults: 12})
		if err != nil {
			log.Fatal(err)
		}
		if !out.TooBroad {
			fmt.Printf("  %d result(s) — specific enough\n\n", out.OriginalResults)
			continue
		}
		fmt.Printf("  %d results — too broad; try instead:\n", out.OriginalResults)
		for i, s := range out.Suggestions {
			fmt.Printf("  %d. {%s}  (%d results, +%s)\n",
				i+1, strings.Join(s.Keywords, " "), len(s.Results), strings.Join(s.Added, "+"))
		}
		fmt.Println()
	}
	// Output:
	// > database
	//   2225 results — too broad; try instead:
	//   1. {database neural}  (33 results, +neural)
	//   2. {computation database}  (68 results, +computation)
	//   3. {database matching}  (83 results, +matching)
	//   4. {database distributed}  (108 results, +distributed)
	//
	// > query processing
	//   139 results — too broad; try instead:
	//   1. {processing query twig}  (26 results, +twig)
	//   2. {matching processing query}  (25 results, +matching)
	//   3. {edbt processing query}  (43 results, +edbt)
	//   4. {machine processing query}  (40 results, +machine)
	//
	// > skyline computation
	//   7 result(s) — specific enough
}

// Bibliography search: generate a DBLP-like corpus, save its index to
// disk, reopen it read-only as a query server would, and run a batch of
// damaged literature queries.
func ExampleOpenIndex() {
	dir, err := os.MkdirTemp("", "xrefine-bibliography")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	var b strings.Builder
	if err := datagen.DBLP(&b, datagen.DBLPConfig{Authors: 400, Seed: 7}); err != nil {
		log.Fatal(err)
	}
	eng, err := xrefine.NewFromXML(strings.NewReader(b.String()), nil)
	if err != nil {
		log.Fatal(err)
	}
	indexPath := filepath.Join(dir, "dblp.kv")
	store, err := xrefine.OpenStore(indexPath, false)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.SaveIndex(store); err != nil {
		log.Fatal(err)
	}
	st := store.StorageStats()
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed corpus: %d keys, %d bytes on disk\n\n", st.Keys, st.DiskBytes)

	ro, err := xrefine.OpenStore(indexPath, true)
	if err != nil {
		log.Fatal(err)
	}
	defer ro.Close()
	server, err := xrefine.OpenIndex(ro, &xrefine.Config{TopK: 3})
	if err != nil {
		log.Fatal(err)
	}
	for _, q := range []string{
		"databse query optimizaton",  // two spelling errors
		"key word search",            // mistaken split
		"machinelearning",            // mistaken merge
		"xml publication 1999",       // vocabulary mismatch
		"skyline computation sigmod", // likely fine
	} {
		fmt.Printf("> %s\n", q)
		resp, err := server.QueryTermsCtx(context.Background(), xrefine.Tokenize(q), xrefine.StrategyPartition, 0, 0)
		if err != nil {
			log.Fatal(err)
		}
		if len(resp.SearchFor) > 0 {
			var tags []string
			for _, c := range resp.SearchFor {
				tags = append(tags, c.Type.Tag)
			}
			fmt.Printf("  inferred search target: %s\n", strings.Join(tags, ", "))
		}
		if !resp.NeedRefine {
			fmt.Printf("  OK as-is: %d results\n\n", len(resp.Queries[0].Results))
			continue
		}
		for i, rq := range resp.Queries {
			fmt.Printf("  %d. {%s} dSim=%.1f (%d results)\n",
				i+1, strings.Join(rq.Keywords, " "), rq.DSim, len(rq.Results))
		}
		fmt.Println()
	}
	// Output:
	// indexed corpus: 658 keys, 229376 bytes on disk
	//
	// > databse query optimizaton
	//   inferred search target: author, publications
	//   1. {database optimization query} dSim=2.0 (58 results)
	//   2. {database query} dSim=3.0 (708 results)
	//   3. {database optimization search} dSim=4.0 (36 results)
	//
	// > key word search
	//   inferred search target: author
	//   1. {keyword query} dSim=3.0 (142 results)
	//   2. {keyword search} dSim=1.0 (93 results)
	//   3. {search web world} dSim=3.0 (7 results)
	//
	// > machinelearning
	//   inferred search target: author, publications
	//   1. {learning machine} dSim=1.0 (23 results)
	//
	// > xml publication 1999
	//   inferred search target: author, publications
	//   1. {1999 inproceedings xml} dSim=1.0 (87 results)
	//   2. {1999 article xml} dSim=1.0 (70 results)
	//   3. {1999 publications xml} dSim=1.0 (87 results)
	//
	// > skyline computation sigmod
	//   inferred search target: author, publications
	//   OK as-is: 1 results
}

// Federated feeds behind the HTTP API: several ad feeds graft into one
// collection (each feed becomes a document partition), the engine serves
// it over HTTP, and a client fires damaged queries at the JSON API.
func ExampleCollection() {
	var docs []*xrefine.Document
	for _, src := range federatedFeeds {
		d, err := xrefine.ParseXML(strings.NewReader(src))
		if err != nil {
			log.Fatal(err)
		}
		docs = append(docs, d)
	}
	col, err := xrefine.Collection("catalog", docs...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collection: %d feeds, %d nodes\n\n", len(col.Partitions()), col.NodeCount)

	// The engine keeps the document, so the API returns snippets.
	eng := xrefine.NewFromDocument(col, &xrefine.Config{TopK: 2})
	ts := httptest.NewServer(server.New(eng, server.Config{}))
	defer ts.Close()
	for _, q := range []string{
		"runing shoes",      // typo
		"water proof tent",  // mistaken split
		"carbon racingbike", // mistaken merge
		"road bike",         // clean
	} {
		resp, err := http.Get(ts.URL + "/search?q=" + url.QueryEscape(q))
		if err != nil {
			log.Fatal(err)
		}
		var parsed struct {
			NeedRefine bool `json:"need_refine"`
			Queries    []struct {
				Keywords []string `json:"keywords"`
				Steps    []string `json:"steps"`
				Results  []struct {
					Snippet string `json:"snippet"`
				} `json:"results"`
			} `json:"queries"`
		}
		err = json.NewDecoder(resp.Body).Decode(&parsed)
		resp.Body.Close()
		if err != nil {
			log.Fatalf("bad response for %q: %v", q, err)
		}
		fmt.Printf("> %s\n", q)
		if len(parsed.Queries) == 0 {
			fmt.Println("  no ads")
			continue
		}
		best := parsed.Queries[0]
		tag := "refined to"
		if !parsed.NeedRefine {
			tag = "matched as"
		}
		fmt.Printf("  %s {%s} (%d ad(s))\n", tag, strings.Join(best.Keywords, " "), len(best.Results))
		for _, st := range best.Steps {
			fmt.Printf("    via %s\n", st)
		}
		for _, r := range best.Results {
			fmt.Printf("    %s\n", r.Snippet)
		}
	}
	// Output:
	// collection: 3 feeds, 22 nodes
	//
	// > runing shoes
	//   refined to {running shoes} (1 ad(s))
	//     via runing ->substitute running (ds=1)
	//     product:0.0.0.0 "running shoes"
	// > water proof tent
	//   refined to {tent waterproof} (1 ad(s))
	//     via water,proof ->merge waterproof (ds=1)
	//     ad:0.1.1 "camping tent two person waterproof"
	// > carbon racingbike
	//   refined to {bike carbon racing} (1 ad(s))
	//     via racingbike ->split racing,bike (ds=1)
	//     ad:0.2.0 "road bike carbon racing bicycle"
	// > road bike
	//   matched as {bike road} (1 ad(s))
	//     product:0.2.0.0 "road bike"
}
