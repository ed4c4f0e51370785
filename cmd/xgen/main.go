// Command xgen generates the synthetic evaluation datasets: a DBLP-like
// bibliography and a Baseball-like season document (the substitutes for
// the paper's real datasets), plus optional corruption workloads.
//
// Usage:
//
//	xgen -kind dblp -authors 2000 -seed 42 -out dblp.xml
//	xgen -kind dblp -authors 2000 -out dblp.xml -updates 40      also emit dblp.xml.updates
//	xgen -kind baseball -teams 30 -out baseball.xml
//	xgen -kind workload -xml dblp.xml -queries 50 -out queries.txt
//	xgen -kind updates -xml dblp.xml -updates 40 -out updates.txt
//	xgen -kind dblp -authors 2000 -shards 4 -shard-dir dblp-shards
//	xgen -kind shards -xml dblp.xml -shards 4 -shard-mode hash -shard-dir dblp-shards
//	xgen -kind shards -xml dblp.xml -shards 2 -replicas 3 -shard-dir dblp-shards
//
// The -updates N flag derives a deterministic batch file of N insert/delete
// operations valid against the generated (or -xml supplied) document, in
// the one-op-per-line JSON form consumed by xrefine apply and POST /update.
//
// The -shards N flag splits the corpus across N independent shard stores
// (shard-<i>.kv plus a manifest.json) in -shard-dir, partition-granular,
// by contiguous range (-shard-mode range, the default) or by ordinal hash
// (-shard-mode hash). With -replicas R every shard is written as R
// identical stores (shard-<i>.kv plus shard-<i>.r<j>.kv), so the router
// can serve each shard from an R-way replica set with hedged reads and
// failover. The directory is served scatter-gather by xserve -shards and
// queried by xrefine -shards, with output byte-identical to a monolithic
// index over the unsplit corpus.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xrefine/internal/datagen"
	"xrefine/internal/mutate"
	"xrefine/internal/shard"
	"xrefine/internal/xmltree"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xgen:", err)
		os.Exit(1)
	}
}

// run executes the generator with the given arguments; output goes to the
// -out file or to defaultOut.
func run(args []string, defaultOut io.Writer) error {
	fs := flag.NewFlagSet("xgen", flag.ContinueOnError)
	var (
		kind      = fs.String("kind", "dblp", "dataset kind: dblp | baseball | workload | updates | shards")
		out       = fs.String("out", "", "output file (default stdout)")
		seed      = fs.Int64("seed", 42, "random seed")
		authors   = fs.Int("authors", 2000, "dblp: number of authors")
		teams     = fs.Int("teams", 30, "baseball: number of teams")
		xmlPath   = fs.String("xml", "", "workload/updates: document to derive from")
		queries   = fs.Int("queries", 50, "workload: number of queries")
		ops       = fs.Int("ops", 1, "workload: corruptions per query")
		updates   = fs.Int("updates", 0, "emit N update operations (with -kind updates, or alongside a generated corpus)")
		updBatch  = fs.Int("update-batch", 4, "operations per update batch")
		shards    = fs.Int("shards", 0, "split the corpus into N shard stores (with -kind shards, or alongside a generated corpus)")
		shardDir  = fs.String("shard-dir", "", "directory for the shard stores and manifest (required with -shards)")
		shardMode = fs.String("shard-mode", "range", "partition placement: range | hash")
		replicas  = fs.Int("replicas", 1, "replicas per shard: each shard is written as R identical stores")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	w := defaultOut
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	switch *kind {
	case "dblp", "baseball":
		var corpus strings.Builder
		var err error
		if *kind == "dblp" {
			err = datagen.DBLP(&corpus, datagen.DBLPConfig{Authors: *authors, Seed: *seed})
		} else {
			err = datagen.Baseball(&corpus, datagen.BaseballConfig{Teams: *teams, Seed: *seed})
		}
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, corpus.String()); err != nil {
			return err
		}
		if *updates <= 0 && *shards <= 0 {
			return nil
		}
		doc, err := xmltree.ParseString(corpus.String(), nil)
		if err != nil {
			return err
		}
		if *updates > 0 {
			// The update workload rides along in <out>.updates, so corpus
			// and batches derived from it always travel as a pair.
			if *out == "" {
				return fmt.Errorf("-updates alongside a corpus needs -out (batches go to <out>.updates)")
			}
			uf, err := os.Create(*out + ".updates")
			if err != nil {
				return err
			}
			defer uf.Close()
			if err := writeUpdates(uf, doc, *updates, *updBatch, *seed); err != nil {
				return err
			}
		}
		if *shards > 0 {
			return writeShards(doc, *shards, *shardMode, *shardDir, *replicas)
		}
		return nil
	case "shards":
		if *xmlPath == "" {
			return fmt.Errorf("shards needs -xml")
		}
		f, err := os.Open(*xmlPath)
		if err != nil {
			return err
		}
		doc, err := xmltree.Parse(f, nil)
		f.Close()
		if err != nil {
			return err
		}
		return writeShards(doc, *shards, *shardMode, *shardDir, *replicas)
	case "updates":
		if *xmlPath == "" {
			return fmt.Errorf("updates needs -xml")
		}
		f, err := os.Open(*xmlPath)
		if err != nil {
			return err
		}
		doc, err := xmltree.Parse(f, nil)
		f.Close()
		if err != nil {
			return err
		}
		if *updates <= 0 {
			return fmt.Errorf("updates needs -updates N")
		}
		return writeUpdates(w, doc, *updates, *updBatch, *seed)
	case "workload":
		if *xmlPath == "" {
			return fmt.Errorf("workload needs -xml")
		}
		f, err := os.Open(*xmlPath)
		if err != nil {
			return err
		}
		doc, err := xmltree.Parse(f, nil)
		f.Close()
		if err != nil {
			return err
		}
		cases, err := datagen.Workload(doc, datagen.WorkloadConfig{
			Seed: *seed, Queries: *queries, OpsPerQuery: *ops,
		})
		if err != nil {
			return err
		}
		for _, cs := range cases {
			opNames := make([]string, len(cs.Applied))
			for i, op := range cs.Applied {
				opNames[i] = op.String()
			}
			fmt.Fprintf(w, "%s\t%s\t%s\n",
				strings.Join(cs.Corrupted, " "),
				strings.Join(cs.Intended, " "),
				strings.Join(opNames, "+"))
		}
		return nil
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
}

// writeShards splits doc into n shard stores (R replica copies each) plus
// a manifest under dir.
func writeShards(doc *xmltree.Document, n int, mode, dir string, replicas int) error {
	if n <= 0 {
		return fmt.Errorf("shards needs -shards N")
	}
	if dir == "" {
		return fmt.Errorf("-shards needs -shard-dir")
	}
	if replicas < 1 {
		return fmt.Errorf("-replicas must be at least 1")
	}
	m, err := shard.ParseMode(mode)
	if err != nil {
		return err
	}
	_, err = shard.WriteReplicatedStores(doc, dir, n, m, replicas)
	return err
}

// writeUpdates derives n operations in perBatch-sized batches and writes
// them one per line, batches separated by comment markers. The whole file
// applies as one batch (xrefine apply) and the markers let soak/bench
// tooling split it back into the original batches.
func writeUpdates(w io.Writer, doc *xmltree.Document, n, perBatch int, seed int64) error {
	if perBatch <= 0 {
		perBatch = 4
	}
	batches, err := datagen.Updates(doc, datagen.UpdatesConfig{
		Batches: (n + perBatch - 1) / perBatch,
		Ops:     perBatch,
		Seed:    seed,
	})
	if err != nil {
		return err
	}
	left := n
	for i, b := range batches {
		if len(b.Ops) > left {
			b.Ops = b.Ops[:left]
		}
		if len(b.Ops) == 0 {
			break
		}
		if _, err := fmt.Fprintf(w, "# batch %d\n", i); err != nil {
			return err
		}
		if err := mutate.WriteBatchFile(w, b); err != nil {
			return err
		}
		left -= len(b.Ops)
	}
	return nil
}
