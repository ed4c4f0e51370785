// Package xrefine is an automatic XML keyword query refinement engine — a
// from-scratch Go reproduction of "Automatic XML Keyword Query Refinement"
// (Bao, Lu, Ling, Meng; 2009), the XRefine system.
//
// XML keyword search is conjunctive: a result must contain every query
// keyword (the SLCA semantics). Real queries contain typos, mis-split or
// mis-merged terms, vocabulary mismatches and over-restrictive terms, so
// they frequently match nothing meaningful. XRefine detects this *during*
// query processing — without a wasted first retrieval — and returns a
// ranked list of refined queries, each guaranteed to have meaningful
// results, together with those results, in a single scan of the keyword
// inverted lists.
//
// # Quick start
//
//	eng, err := xrefine.NewFromXML(file, nil)
//	if err != nil { ... }
//	resp, err := eng.QueryTermsCtx(ctx, xrefine.Tokenize("online databse"), // note the typo
//	    xrefine.StrategyPartition, 0, 0)
//	if resp.NeedRefine {
//	    for _, rq := range resp.Queries {
//	        fmt.Println(rq.Keywords, rq.DSim, len(rq.Results))
//	    }
//	}
//
// The engine decides adaptively: a query with meaningful results comes
// back unrefined with its matches; a broken query comes back with top-K
// refinement suggestions and their matches.
//
// The package's Example functions are the paper's scenarios as runnable,
// output-checked programs (go test -run Example -v .); cmd/xbench carries
// its experiments.
package xrefine

import (
	"context"
	"io"

	"xrefine/internal/core"
	"xrefine/internal/mutate"
	"xrefine/internal/narrow"
	"xrefine/internal/obs"
	"xrefine/internal/refine"
	"xrefine/internal/shard"
	"xrefine/internal/storage"
	"xrefine/internal/storage/backends"
	"xrefine/internal/tokenize"
	"xrefine/internal/xmltree"
)

// Engine answers keyword queries over one indexed XML document.
type Engine = core.Engine

// Config tunes an Engine; the zero value uses sensible defaults.
type Config = core.Config

// Response is the engine's answer to one query.
type Response = core.Response

// RankedQuery is one (possibly refined) query with its results.
type RankedQuery = core.RankedQuery

// Match is one meaningful SLCA result node.
type Match = refine.Match

// Strategy names the refinement algorithm a query asks for; the engine
// serves one, StrategyPartition.
type Strategy = core.Strategy

// StrategyPartition is the partition-based refinement of Section VI
// (Algorithm 2), the one strategy Engine.QueryTermsCtx serves.
const StrategyPartition = core.StrategyPartition

// Document is a parsed XML document tree.
type Document = xmltree.Document

// Store is the storage backend indexes persist into. Two engines
// implement it: the page-based B+tree (one file, the default) and the
// Bitcask-style log-structured engine (a segment directory with hint-file
// cold starts); OpenStoreKind picks one by name.
type Store = storage.Backend

// NewFromXML parses and indexes an XML document from r.
func NewFromXML(r io.Reader, cfg *Config) (*Engine, error) {
	return core.NewFromXML(r, cfg)
}

// NewFromDocument indexes an already-parsed document.
func NewFromDocument(doc *Document, cfg *Config) *Engine {
	return core.NewFromDocument(doc, cfg)
}

// ParseXML parses an XML document into a tree.
func ParseXML(r io.Reader) (*Document, error) {
	return xmltree.Parse(r, nil)
}

// Collection grafts several parsed documents under one virtual root; each
// member becomes a document partition, so the refinement algorithms treat
// a set of feeds exactly like one large document.
func Collection(rootTag string, docs ...*Document) (*Document, error) {
	return xmltree.Collection(rootTag, docs...)
}

// OpenStore opens (or creates) an index store at path. An existing
// store's engine is detected from its layout — a file is a B+tree store,
// a directory a log store; a new store is created with the B+tree engine
// (or the XREFINE_BACKEND override). Use OpenStoreKind to pick explicitly.
func OpenStore(path string, readOnly bool) (Store, error) {
	return OpenStoreKind("", path, readOnly)
}

// OpenStoreKind is OpenStore with an explicit engine name ("btree" or
// "log"; empty auto-detects an existing store and uses the default engine
// for a new one).
func OpenStoreKind(backend string, path string, readOnly bool) (Store, error) {
	var kind storage.Kind
	if backend == "" {
		var err error
		if kind, err = backends.Detect(path); err != nil {
			kind = storage.DefaultKind() // new store: no layout to sniff
		}
	} else {
		var err error
		if kind, err = storage.ParseKind(backend); err != nil {
			return nil, err
		}
	}
	return backends.Open(kind, path, &storage.Options{ReadOnly: readOnly})
}

// OpenIndex loads an engine from a previously saved index store. Stores
// written with Engine.SaveIndexWithDocument restore the source document,
// keeping snippets and narrowing available.
func OpenIndex(store Store, cfg *Config) (*Engine, error) {
	return core.Open(store, cfg)
}

// UpdateBatch is an atomic group of insert-subtree / delete-subtree
// operations for Engine.Apply: all of it commits as one new epoch, or none
// of it does.
type UpdateBatch = mutate.Batch

// OpenLiveIndex is OpenIndex plus live-update support: Engine.Apply
// commits each batch to the store as the next epoch, durable once Apply
// returns, and a batch Apply refuses leaves the store untouched. The store
// must have been opened read-write and saved with
// Engine.SaveIndexWithDocument. The caller still owns closing the store.
func OpenLiveIndex(store Store, cfg *Config) (*Engine, error) {
	return core.OpenLive(store, "", cfg)
}

// ReadUpdateBatch parses a batch file: one operation per line in the JSON
// wire form ({"op":"insert","parent":"0","xml":"..."} /
// {"op":"delete","target":"0.2"}), blank lines and #-comments skipped.
// This is the format xgen -updates emits and xrefine apply consumes.
func ReadUpdateBatch(r io.Reader) (*UpdateBatch, error) {
	return mutate.ReadBatchFile(r)
}

// Tokenize normalizes a raw keyword query string into the query terms
// Engine.QueryTermsCtx takes, exactly as the serving surfaces do.
func Tokenize(q string) []string { return tokenize.Query(q) }

// Span is one timed stage of a traced query; SpanData is its rendered
// snapshot as served by explain=1 and the slow-query log.
type Span = obs.Span

// SpanData is an immutable span-tree snapshot.
type SpanData = obs.SpanData

// NewTrace arms per-query tracing on a context: pass the returned context
// to Engine.QueryTermsCtx and every pipeline stage
// records a span under the returned root. End the root after the query
// and snapshot it with Data; Release returns the tree to the span pool.
func NewTrace(ctx context.Context, name string) (context.Context, *Span) {
	return obs.NewTrace(ctx, name)
}

// WriteTrace pretty-prints a span tree for terminals.
func WriteTrace(w io.Writer, d *SpanData) { obs.WriteTree(w, d) }

// ShardRouter hosts the shards of a split corpus — one independent engine
// and store per shard — behind one scatter-gather query surface whose
// responses are byte-identical to a monolithic engine over the unsplit
// corpus. It satisfies the HTTP server's Backend, so xserve -shards mounts
// it directly.
type ShardRouter = shard.Router

// ShardOptions configures OpenShards.
type ShardOptions = shard.Options

// OpenShards opens a shard directory written by xgen -shards.
func OpenShards(dir string, opts *ShardOptions) (*ShardRouter, error) {
	return shard.Open(dir, opts)
}

// NarrowOptions tune Engine.Narrow, the too-many-results extension.
type NarrowOptions = narrow.Options

// Snippet renders a short preview of a match against its document.
func Snippet(doc *Document, m Match, maxRunes int) string {
	return core.Snippet(doc, m, maxRunes)
}
