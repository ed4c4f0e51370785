// Bibliography search: a realistic digital-library scenario. The program
// generates a DBLP-like corpus of a few hundred authors, builds a
// persistent index on disk, reopens it read-only, and runs a batch of
// damaged literature queries — demonstrating index persistence and the
// search-for inference that keeps results at entity granularity. (The
// paper's three refinement algorithms are compared by xbench fig4.)
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"xrefine"
	"xrefine/internal/datagen"
)

func main() {
	dir, err := os.MkdirTemp("", "xrefine-bibliography")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Generate the corpus and build a persistent index.
	xmlPath := filepath.Join(dir, "dblp.xml")
	f, err := os.Create(xmlPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := datagen.DBLP(f, datagen.DBLPConfig{Authors: 400, Seed: 7}); err != nil {
		log.Fatal(err)
	}
	f.Close()

	in, err := os.Open(xmlPath)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := xrefine.NewFromXML(in, nil)
	in.Close()
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

	// 2. Reopen the index read-only, as a query server would.
	ro, err := xrefine.OpenStore(indexPath, true)
	if err != nil {
		log.Fatal(err)
	}
	defer ro.Close()
	server, err := xrefine.OpenIndex(ro, &xrefine.Config{TopK: 3})
	if err != nil {
		log.Fatal(err)
	}

	// 3. A batch of queries a hurried researcher might type.
	queries := []string{
		"databse query optimizaton",  // two spelling errors
		"key word search",            // mistaken split
		"machinelearning",            // mistaken merge
		"xml publication 1999",       // vocabulary mismatch
		"skyline computation sigmod", // likely fine
	}
	for _, q := range queries {
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
}
