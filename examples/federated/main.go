// Federated feeds behind an HTTP API: several ad feeds graft into one
// collection (each feed becomes a document partition), the engine serves
// it over HTTP, and a client fires typo-ridden queries at the JSON API —
// the full sponsored-search deployment in one program.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"xrefine"
	"xrefine/internal/core"
	"xrefine/internal/server"
)

var feeds = map[string]string{
	"sports": `<feed>
  <ad><product>running shoes</product><keywords>marathon lightweight</keywords></ad>
  <ad><product>tennis racket</product><keywords>carbon graphite</keywords></ad>
</feed>`,
	"outdoor": `<feed>
  <ad><product>hiking boots</product><keywords>waterproof mountain</keywords></ad>
  <ad><product>camping tent</product><keywords>two person waterproof</keywords></ad>
</feed>`,
	"cycling": `<feed>
  <ad><product>road bike</product><keywords>carbon racing bicycle</keywords></ad>
  <ad><product>bike helmet</product><keywords>ventilated lightweight</keywords></ad>
</feed>`,
}

func main() {
	// 1. Parse each feed and graft them into one collection.
	var docs []*xrefine.Document
	for name, src := range feeds {
		d, err := xrefine.ParseXML(strings.NewReader(src))
		if err != nil {
			log.Fatalf("feed %s: %v", name, err)
		}
		docs = append(docs, d)
	}
	col, err := xrefine.Collection("catalog", docs...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collection: %d feeds, %d nodes\n\n", len(col.Partitions()), col.NodeCount)

	// 2. Serve it. (core.NewFromDocument keeps the document, so the API
	// returns snippets and supports /narrow.)
	eng := core.NewFromDocument(col, &core.Config{TopK: 2, CacheSize: 128})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: server.New(eng, server.Config{})}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", base)

	// 3. A client stream of damaged queries.
	client := &http.Client{Timeout: 5 * time.Second}
	for _, q := range []string{
		"runing shoes",      // typo
		"water proof tent",  // mistaken split
		"carbon racingbike", // mistaken merge
		"road bike",         // clean
	} {
		resp, err := client.Get(base + "/search?q=" + strings.ReplaceAll(q, " ", "+"))
		if err != nil {
			log.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
		var parsed struct {
			NeedRefine bool `json:"need_refine"`
			Queries    []struct {
				Keywords []string `json:"keywords"`
				DSim     float64  `json:"dsim"`
				Steps    []string `json:"steps"`
				Results  []struct {
					Snippet string `json:"snippet"`
				} `json:"results"`
			} `json:"queries"`
		}
		if err := json.Unmarshal(body, &parsed); err != nil {
			log.Fatalf("bad response for %q: %v\n%s", q, err, body)
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
}
