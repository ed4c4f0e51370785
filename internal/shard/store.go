// Package shard hosts a corpus across N independent engine shards — one
// store and epoch world each — and serves queries scatter-gather with
// results byte-identical to a monolithic engine over the concatenated
// corpus. The corpus is one collection document; its partitions (root
// children) are split across shard sub-documents that keep their global
// Dewey labels and share one type registry, so per-shard scans are exact
// restrictions of the monolithic walk and merge back deterministically.
package shard

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"xrefine/internal/core"
	"xrefine/internal/storage"
	"xrefine/internal/storage/backends"
	"xrefine/internal/tokenize"
	"xrefine/internal/xmltree"
)

// Split modes: how partitions are assigned to shards.
const (
	// ModeRange assigns contiguous partition blocks — shard i gets the
	// i-th slice of the document-order partition sequence.
	ModeRange = "range"
	// ModeHash assigns each partition by FNV-1a of its ordinal — spreads
	// skewed corpora at the cost of range locality.
	ModeHash = "hash"
)

// ParseMode validates a split-mode flag value.
func ParseMode(s string) (string, error) {
	switch s {
	case ModeRange, ModeHash:
		return s, nil
	}
	return "", fmt.Errorf("shard: unknown split mode %q (want %s or %s)", s, ModeRange, ModeHash)
}

// ManifestName is the file naming a shard directory's layout.
const ManifestName = "manifest.json"

// Manifest describes a shard directory: the split mode it was created
// with and the store of every shard, in shard order.
type Manifest struct {
	Version int             `json:"version"`
	Mode    string          `json:"mode"`
	Shards  []ManifestEntry `json:"shards"`
}

// ManifestEntry names one shard's files, relative to the directory. Store
// is the primary replica; Replicas lists the additional copies a
// replicated directory carries (absent for R=1 directories, which keeps
// version-1 manifests readable both ways). Backend names the primary
// replica's storage engine; absent means btree, so pre-backend manifests
// keep opening unchanged. Older manifests also carry a "wal" key per
// replica; it is ignored.
type ManifestEntry struct {
	Store    string         `json:"store"`
	Backend  string         `json:"backend,omitempty"`
	Replicas []ReplicaFiles `json:"replicas,omitempty"`
}

// ReplicaFiles names one additional replica's store, relative to the
// directory. Backend follows the same absent-means-btree rule as
// ManifestEntry — replicas of one shard may in principle mix engines,
// since every replica is its own store/epoch world.
type ReplicaFiles struct {
	Store   string `json:"store"`
	Backend string `json:"backend,omitempty"`
}

// ReadManifest loads a shard directory's manifest.
func ReadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	if m.Version != 1 || len(m.Shards) == 0 {
		return nil, fmt.Errorf("shard: manifest: unsupported version %d with %d shards", m.Version, len(m.Shards))
	}
	return &m, nil
}

// SplitDocument splits a corpus document into n shard sub-documents by the
// given mode. Every sub-document shares the corpus registry and keeps
// global Dewey labels (xmltree.Document.Subset); shards may come out empty
// when the corpus has fewer partitions than shards. The corpus root must
// be a bare container — carrying direct text on the root would replicate
// its postings into every shard, which the merge corrections do not undo.
func SplitDocument(doc *xmltree.Document, n int, mode string) ([]*xmltree.Document, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: split into %d shards", n)
	}
	if len(tokenize.Text(doc.Root.Text)) > 0 {
		return nil, fmt.Errorf("shard: corpus root carries direct text; sharding requires a bare container root")
	}
	parts := doc.Partitions()
	ords := make([][]uint32, n)
	switch mode {
	case ModeRange:
		for i := 0; i < n; i++ {
			for _, p := range parts[len(parts)*i/n : len(parts)*(i+1)/n] {
				ords[i] = append(ords[i], p.Ord())
			}
		}
	case ModeHash:
		for _, p := range parts {
			var be [4]byte
			binary.BigEndian.PutUint32(be[:], p.Ord())
			h := fnv.New32a()
			h.Write(be[:])
			ords[h.Sum32()%uint32(n)] = append(ords[h.Sum32()%uint32(n)], p.Ord())
		}
	default:
		return nil, fmt.Errorf("shard: unknown split mode %q", mode)
	}
	docs := make([]*xmltree.Document, n)
	for i := range ords {
		sub, err := doc.Subset(ords[i])
		if err != nil {
			return nil, err
		}
		docs[i] = sub
	}
	return docs, nil
}

// WriteStores splits a corpus document into n shards and writes a shard
// directory: shard-<i>.kv index stores (each carrying its sub-document,
// so shards serve snippets and accept live updates) plus the manifest.
// The directory is created if missing. The engine is storage.DefaultKind
// (btree unless the XREFINE_BACKEND matrix override is set).
func WriteStores(doc *xmltree.Document, dir string, n int, mode string) (*Manifest, error) {
	return WriteReplicatedStoresBackend(doc, dir, n, mode, 1, storage.DefaultKind())
}

// WriteReplicatedStores is WriteStores with R copies of every shard: each
// shard's sub-document is saved into replicas identical stores
// (shard-<i>.kv plus shard-<i>.r<j>.kv), so a router can open an R-way
// replica set where every replica holds its own store and epoch world.
func WriteReplicatedStores(doc *xmltree.Document, dir string, n int, mode string, replicas int) (*Manifest, error) {
	return WriteReplicatedStoresBackend(doc, dir, n, mode, replicas, storage.DefaultKind())
}

// storeName names one replica's store file (btree) or directory (log).
func storeName(shard, replica int, kind storage.Kind) string {
	ext := ".kv"
	if kind == storage.KindLog {
		ext = ".logdb"
	}
	if replica == 0 {
		return fmt.Sprintf("shard-%d%s", shard, ext)
	}
	return fmt.Sprintf("shard-%d.r%d%s", shard, replica, ext)
}

// WriteReplicatedStoresBackend is WriteReplicatedStores with an explicit
// storage engine. B+tree replicas are single files (shard-<i>.kv); log
// replicas are segment directories (shard-<i>.logdb). The manifest records
// the engine per replica so Open needs no flag to reopen the directory.
func WriteReplicatedStoresBackend(doc *xmltree.Document, dir string, n int, mode string, replicas int, kind storage.Kind) (*Manifest, error) {
	if replicas < 1 {
		replicas = 1
	}
	docs, err := SplitDocument(doc, n, mode)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man := &Manifest{Version: 1, Mode: mode}
	for i, sub := range docs {
		eng := core.NewFromDocument(sub, &core.Config{DisableMetrics: true})
		ent := ManifestEntry{Store: storeName(i, 0, kind), Backend: string(kind)}
		for j := 1; j < replicas; j++ {
			ent.Replicas = append(ent.Replicas, ReplicaFiles{Store: storeName(i, j, kind), Backend: string(kind)})
		}
		names := append([]string{ent.Store}, make([]string, 0, len(ent.Replicas))...)
		for _, rf := range ent.Replicas {
			names = append(names, rf.Store)
		}
		for _, name := range names {
			store, err := backends.Open(kind, filepath.Join(dir, name), nil)
			if err != nil {
				return nil, err
			}
			err = eng.SaveIndexWithDocument(store)
			if cerr := store.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, fmt.Errorf("shard: write %s: %w", name, err)
			}
		}
		man.Shards = append(man.Shards, ent)
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), append(raw, '\n'), 0o644); err != nil {
		return nil, err
	}
	return man, nil
}
