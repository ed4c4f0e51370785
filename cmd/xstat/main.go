// Command xstat inspects an XML document or a prebuilt index: node and
// type counts, vocabulary size, the most frequent keywords, and the
// physical statistics of the index store — the numbers one checks before
// trusting benchmark output.
//
// Usage:
//
//	xstat -xml dblp.xml [-top 15]
//	xstat -index dblp.kv [-top 15]
//	xstat -index dblp.kv -blocks
//	xstat -index dblp.logdb -storage
//	xstat -shards dblp-shards
//
// With -shards, the per-shard layout of a directory written by
// xgen -shards is tabulated instead: each shard's node and partition
// counts, committed epoch and store size, with totals.
//
// With -storage, the physical storage-engine report is rendered instead:
// the backend kind, the on-disk file inventory (pages for the B+tree,
// segment and hint files for the log engine), live/dead byte ratios,
// keydir footprint and cold-start load paths.
//
// With -blocks, the physical shape of the block-compressed posting
// storage is reported: per-term block counts and encoded bytes, and the
// resident bytes per posting corpus-wide and per term.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"xrefine/internal/index"
	"xrefine/internal/shard"
	"xrefine/internal/storage"
	"xrefine/internal/storage/backends"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xstat:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("xstat", flag.ContinueOnError)
	var (
		xmlPath   = fs.String("xml", "", "XML document to inspect")
		indexPath = fs.String("index", "", "index file to inspect")
		shardDir  = fs.String("shards", "", "shard directory (xgen -shards) to inspect")
		top       = fs.Int("top", 15, "how many top keywords to list")
		blocks    = fs.Bool("blocks", false, "report block-compressed posting storage instead")
		storageOn = fs.Bool("storage", false, "report the index store's storage-engine state instead")
		backend   = fs.String("backend", "", "storage engine of -index: btree | log (default: detect from the layout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shardDir != "" {
		return reportShards(w, *shardDir)
	}
	var ix *index.Index
	var storeStats *storage.Stats
	var epoch uint64
	switch {
	case *xmlPath != "":
		f, err := os.Open(*xmlPath)
		if err != nil {
			return err
		}
		defer f.Close()
		ix, err = index.BuildStream(f, nil)
		if err != nil {
			return err
		}
	case *indexPath != "":
		store, err := openStore(*indexPath, *backend)
		if err != nil {
			return err
		}
		defer store.Close()
		if *storageOn {
			return reportStorage(w, *indexPath, store)
		}
		ix, err = index.Load(store)
		if err != nil {
			return err
		}
		st := store.StorageStats()
		storeStats = &st
		epoch = store.Epoch()
	default:
		return fmt.Errorf("need -xml, -index, or -shards")
	}
	if *storageOn {
		return fmt.Errorf("-storage needs -index")
	}
	if *blocks {
		return reportBlocks(w, ix, *top)
	}
	return report(w, ix, storeStats, epoch, *top)
}

// reportBlocks tabulates the physical shape of the block-compressed
// posting storage: corpus-wide totals and the heaviest terms by encoded
// footprint, each with its resident bytes per posting. Short lists cost
// most per posting — a lone posting pays the full skip-table entry — so
// rare terms sit high on that figure and frequent ones set the total.
func reportBlocks(w io.Writer, ix *index.Index, top int) error {
	type row struct {
		term              string
		postings, blocks  int
		encoded, resident int
	}
	rows := make([]row, 0, len(ix.Vocabulary()))
	var totPost, totBlocks, totEnc, totRes int
	for _, term := range ix.Vocabulary() {
		l, err := ix.List(term)
		if err != nil {
			return fmt.Errorf("list %q: %w", term, err)
		}
		r := row{
			term:     term,
			postings: l.Len(),
			blocks:   l.BlockCount(),
			encoded:  l.EncodedBytes(),
			resident: l.MemoryBytes(),
		}
		rows = append(rows, r)
		totPost += r.postings
		totBlocks += r.blocks
		totEnc += r.encoded
		totRes += r.resident
	}
	perPosting := func(bytes, postings int) float64 {
		if postings == 0 {
			return 0
		}
		return float64(bytes) / float64(postings)
	}
	fmt.Fprintf(w, "terms:       %d\n", len(rows))
	fmt.Fprintf(w, "postings:    %d in %d blocks\n", totPost, totBlocks)
	fmt.Fprintf(w, "encoded:     %d bytes payload, %d resident (payload + skip + types)\n", totEnc, totRes)
	fmt.Fprintf(w, "resident:    %.1f B/posting\n", perPosting(totRes, totPost))

	sort.Slice(rows, func(i, j int) bool {
		if rows[i].encoded != rows[j].encoded {
			return rows[i].encoded > rows[j].encoded
		}
		return rows[i].term < rows[j].term
	})
	n := top
	if n > len(rows) {
		n = len(rows)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nterm\tpostings\tblocks\tencoded B\tresident B/posting")
	for _, r := range rows[:n] {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1f\n",
			r.term, r.postings, r.blocks, r.encoded, perPosting(r.resident, r.postings))
	}
	return tw.Flush()
}

// reportShards tabulates the layout of a shard directory: one row per
// shard plus totals. Node totals overcount the shared corpus root (every
// shard stores it), which is why the monolithic numbers come from
// xstat -index on the unsplit corpus instead.
func reportShards(w io.Writer, dir string) error {
	man, err := shard.ReadManifest(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "shards:      %d (mode %s)\n", len(man.Shards), man.Mode)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nshard\tnodes\tpartitions\tepoch\tbytes")
	var nodes, parts int
	var epochs uint64
	var bytes int64
	for _, e := range man.Shards {
		kind, err := storage.ParseKind(e.Backend)
		if err != nil {
			return err
		}
		store, err := backends.Open(kind, filepath.Join(dir, e.Store), &storage.Options{ReadOnly: true})
		if err != nil {
			return err
		}
		ix, err := index.Load(store)
		if err != nil {
			store.Close()
			return err
		}
		st := store.StorageStats()
		epoch := store.Epoch()
		if err := store.Close(); err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n",
			e.Store, ix.NodeCount, len(ix.PartitionRoots()), epoch, st.DiskBytes)
		nodes += ix.NodeCount
		parts += len(ix.PartitionRoots())
		epochs += epoch
		bytes += st.DiskBytes
	}
	fmt.Fprintf(tw, "total\t%d\t%d\t%d\t%d\n", nodes, parts, epochs, bytes)
	return tw.Flush()
}

func report(w io.Writer, ix *index.Index, store *storage.Stats, epoch uint64, top int) error {
	vocab := ix.Vocabulary()
	fmt.Fprintf(w, "nodes:       %d\n", ix.NodeCount)
	fmt.Fprintf(w, "node types:  %d\n", ix.Types.Len())
	fmt.Fprintf(w, "partitions:  %d\n", len(ix.PartitionRoots()))
	fmt.Fprintf(w, "vocabulary:  %d terms\n", len(vocab))
	if store != nil {
		switch store.Kind {
		case storage.KindLog:
			fmt.Fprintf(w, "store:       %s, %d keys, %d segments, %d bytes\n",
				store.Kind, store.Keys, store.Segments, store.DiskBytes)
		default:
			fmt.Fprintf(w, "store:       %s, %d keys, %d pages (%d free), %d bytes\n",
				store.Kind, store.Keys, store.Pages, store.FreePages, store.DiskBytes)
		}
		fmt.Fprintf(w, "epoch:       %d\n", epoch)
	}

	type tf struct {
		term string
		n    int
	}
	freqs := make([]tf, 0, len(vocab))
	for _, term := range vocab {
		freqs = append(freqs, tf{term: term, n: ix.ListLen(term)})
	}
	sort.Slice(freqs, func(i, j int) bool {
		if freqs[i].n != freqs[j].n {
			return freqs[i].n > freqs[j].n
		}
		return freqs[i].term < freqs[j].term
	})
	if top > len(freqs) {
		top = len(freqs)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\ntop keywords\tpostings")
	for _, f := range freqs[:top] {
		fmt.Fprintf(tw, "%s\t%d\n", f.term, f.n)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nnode type\tcount\tdistinct terms")
	for _, ty := range ix.Types.SortTypesByPath() {
		fmt.Fprintf(tw, "%s\t%d\t%d\n", ty.Path(), ix.NT(ty), ix.GT(ty))
	}
	return tw.Flush()
}

// openStore opens an index store read-only on the named engine, or on the
// engine its on-disk layout implies (file = btree, directory = log).
func openStore(path, backend string) (storage.Backend, error) {
	var kind storage.Kind
	var err error
	if backend != "" {
		kind, err = storage.ParseKind(backend)
	} else {
		kind, err = backends.Detect(path)
	}
	if err != nil {
		return nil, err
	}
	return backends.Open(kind, path, &storage.Options{ReadOnly: true})
}

// reportStorage renders the -storage report: the engine kind, the on-disk
// file inventory, live/dead ratios and the engine's resident footprint —
// the physical numbers one checks before trusting a compaction policy or
// a cold-start claim.
func reportStorage(w io.Writer, path string, store storage.Backend) error {
	st := store.StorageStats()
	fmt.Fprintf(w, "backend:     %s\n", st.Kind)
	fmt.Fprintf(w, "keys:        %d\n", st.Keys)
	fmt.Fprintf(w, "disk:        %d bytes\n", st.DiskBytes)
	fmt.Fprintf(w, "txid:        %d\n", st.Txid)
	fmt.Fprintf(w, "epoch:       %d\n", st.Epoch)
	switch st.Kind {
	case storage.KindLog:
		fmt.Fprintf(w, "segments:    %d\n", st.Segments)
		fmt.Fprintf(w, "live:        %d records, %d bytes\n", st.LiveRecords, st.LiveBytes)
		fmt.Fprintf(w, "dead:        %d records, %d bytes\n", st.DeadRecords, st.DeadBytes)
		if amp := st.Amplification(); amp > 0 {
			fmt.Fprintf(w, "amplification: %.2fx (disk over live)\n", amp)
		}
		fmt.Fprintf(w, "keydir:      %d entries, %d resident bytes\n", st.KeydirEntries, st.KeydirBytes)
		fmt.Fprintf(w, "compactions: %d since open\n", st.Compactions)
		fmt.Fprintf(w, "cold start:  %d segment(s) via hint files, %d via full scan\n", st.HintLoads, st.ScanLoads)
	default:
		fmt.Fprintf(w, "pages:       %d (%d free), %d bytes each\n", st.Pages, st.FreePages, st.PageSize)
	}

	// File inventory: the single page file for the B+tree, the segment /
	// hint / manifest listing for the log engine.
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nfile\tbytes\trole")
	if !fi.IsDir() {
		fmt.Fprintf(tw, "%s\t%d\tpage file\n", filepath.Base(path), fi.Size())
		return tw.Flush()
	}
	ents, err := os.ReadDir(path)
	if err != nil {
		return err
	}
	var total int64
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			continue
		}
		role := "other"
		switch {
		case strings.HasSuffix(ent.Name(), ".data"):
			role = "segment data"
		case strings.HasSuffix(ent.Name(), ".hint"):
			role = "cold-start hint"
		case ent.Name() == "MANIFEST":
			role = "segment manifest"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\n", ent.Name(), info.Size(), role)
		total += info.Size()
	}
	fmt.Fprintf(tw, "total\t%d\t\n", total)
	return tw.Flush()
}
