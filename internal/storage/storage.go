// Package storage defines the pluggable storage-engine contract the index
// persistence layers write against. Two engines implement it: the B+tree
// kvstore (internal/kvstore, the original backend) and the Bitcask-style
// log-structured store (internal/logstore). Everything above this
// interface — index chunk persistence, document streams, live-update epoch
// commits, shard manifests — is backend-agnostic, and the conformance
// suites assert byte-identical query responses across engines.
//
// The package is a leaf: it depends on nothing in the repository, so both
// engines (and every consumer) can import it without cycles. The
// kind-dispatching constructors live in internal/storage/backends, which
// imports both engines.
package storage

import (
	"errors"
	"os"
)

// ErrUnsupportedFormat is the root of the error a store written in a
// retired on-disk format fails to open with: posting lists from before the
// block codec, document streams without child ordinals. Such a store is
// rebuilt from its source XML, not upgraded in place.
var ErrUnsupportedFormat = errors.New("storage: unsupported store format")

// Kind names a storage engine.
type Kind string

// The built-in engine kinds.
const (
	// KindBTree is the page-based copy-on-write B+tree (internal/kvstore):
	// one file, CRC-trailed pages, dual meta slots, ordered keys native.
	KindBTree Kind = "btree"
	// KindLog is the Bitcask-style log-structured engine
	// (internal/logstore): a directory of append-only CRC-framed segment
	// files, an in-memory keydir, background compaction and hint files
	// for millisecond cold starts.
	KindLog Kind = "log"
)

// ParseKind validates a -backend flag value. The empty string means the
// default engine (btree), keeping every pre-flag invocation working.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "", KindBTree:
		return KindBTree, nil
	case KindLog:
		return KindLog, nil
	}
	return "", &UnknownKindError{Value: s}
}

// BackendEnv is the environment variable naming the engine used when a
// caller does not pick one explicitly. The CI backend matrix sets it to
// run backend-agnostic suites (shard differential, fault matrices)
// against the log engine without threading a flag through every helper.
const BackendEnv = "XREFINE_BACKEND"

// DefaultKind returns the engine kind to use when none was specified:
// the BackendEnv override when set and valid, otherwise the B+tree.
func DefaultKind() Kind {
	if k, err := ParseKind(os.Getenv(BackendEnv)); err == nil {
		return k
	}
	return KindBTree
}

// UnknownKindError reports an unrecognized backend name.
type UnknownKindError struct{ Value string }

func (e *UnknownKindError) Error() string {
	return "storage: unknown backend " + e.Value + " (want btree or log)"
}

// Backend is the storage contract shared by every engine. The semantics
// mirror the original kvstore API so the B+tree store satisfies it as-is:
//
//   - Put/Delete stage mutations that become durable only at Commit; reads
//     observe staged state immediately (read-your-writes inside a batch).
//   - Commit persists the staged batch atomically: after a crash, a store
//     reopens at the last committed state — never a partial batch.
//   - Rollback discards the staged batch and restores the last committed
//     state in memory.
//   - Range iterates keys in ascending byte order over [lo, hi); nil hi
//     means "to the end". The callback must not mutate the store.
//   - SetEpoch stages an application epoch published atomically with the
//     next Commit — the hook the live-update engine uses to tie a
//     committed state to its WAL position.
//
// Implementations must support concurrent readers (Get/Range) with writes
// serialized by the caller or internally.
type Backend interface {
	// Get returns the value stored under key.
	Get(key []byte) ([]byte, bool, error)
	// Put stages value under key, replacing any previous value.
	Put(key, value []byte) error
	// Delete stages removal of key, reporting whether it was present.
	Delete(key []byte) (bool, error)
	// DeleteRange stages removal of every key in [lo, hi), returning how
	// many existed.
	DeleteRange(lo, hi []byte) (int, error)
	// Range calls fn for every key in [lo, hi) in ascending order; nil hi
	// means "to the end". Iteration stops early when fn returns false.
	Range(lo, hi []byte, fn func(k, v []byte) bool) error
	// Commit atomically persists the staged batch.
	Commit() error
	// Rollback discards the staged batch, restoring the committed state.
	Rollback() error
	// Sync forces buffered writes to stable storage without publishing a
	// new commit.
	Sync() error
	// Checkpoint compacts the store's durable state: the log engine seals
	// the active segment, merges dead records away and writes hint files;
	// the B+tree engine commits (its copy-on-write design reuses freed
	// pages, so there is nothing further to fold). After a successful
	// checkpoint a reopen pays only the compacted state, which is what
	// lets the embedding layer truncate any replayed WAL prefix.
	Checkpoint() error
	// Epoch returns the application epoch of the last commit (or staged
	// by SetEpoch since).
	Epoch() uint64
	// SetEpoch stages an application epoch for the next Commit.
	SetEpoch(e uint64) error
	// Len returns the number of stored keys.
	Len() int
	// MaxKV returns the largest key+value payload the store accepts.
	MaxKV() int
	// DropCaches evicts clean cached state, forcing subsequent reads back
	// to disk — for memory-pressure relief and fault-injection tests.
	DropCaches()
	// Kind names the engine.
	Kind() Kind
	// StorageStats returns the engine's physical statistics.
	StorageStats() Stats
	// Close releases the store, committing pending changes when writable.
	Close() error
}

// Stats describes the physical state of a store. Generic fields are always
// set; the engine-specific blocks are zero for the other engine.
type Stats struct {
	// Kind names the engine that produced the snapshot.
	Kind Kind `json:"kind"`
	// Keys is the number of stored key-value pairs.
	Keys int `json:"keys"`
	// DiskBytes is the total on-disk footprint (pages or segment files).
	DiskBytes int64 `json:"disk_bytes"`
	// Txid is the last committed transaction sequence number.
	Txid uint64 `json:"txid"`
	// Epoch is the application epoch of the last commit.
	Epoch uint64 `json:"epoch"`

	// B+tree engine (zero for the log engine).

	// Pages and FreePages count allocated and reusable pages.
	Pages     int `json:"pages,omitempty"`
	FreePages int `json:"free_pages,omitempty"`
	// PageSize is the fixed page size in bytes.
	PageSize int `json:"page_size,omitempty"`

	// Log engine (zero for the B+tree engine).

	// Segments is the number of data files (sealed + active).
	Segments int `json:"segments,omitempty"`
	// LiveRecords/LiveBytes cover records the keydir still references;
	// DeadRecords/DeadBytes cover superseded records, tombstones and
	// commit frames awaiting compaction. DiskBytes = LiveBytes+DeadBytes.
	LiveRecords int64 `json:"live_records,omitempty"`
	LiveBytes   int64 `json:"live_bytes,omitempty"`
	DeadRecords int64 `json:"dead_records,omitempty"`
	DeadBytes   int64 `json:"dead_bytes,omitempty"`
	// KeydirEntries and KeydirBytes size the in-memory key directory
	// (entries, and resident key bytes plus per-entry overhead).
	KeydirEntries int   `json:"keydir_entries,omitempty"`
	KeydirBytes   int64 `json:"keydir_bytes,omitempty"`
	// Compactions counts completed merge passes since open.
	Compactions int64 `json:"compactions,omitempty"`
	// HintLoads and ScanLoads split cold-start segment loads by path:
	// hint-file fast path vs full data-file replay.
	HintLoads int `json:"hint_loads,omitempty"`
	ScanLoads int `json:"scan_loads,omitempty"`
}

// Amplification returns the on-disk amplification factor: total disk bytes
// over live bytes. 1.0 means no dead weight; the compaction policy holds
// the log engine under 2.0. Returns 0 when live bytes are unknown/zero.
func (s Stats) Amplification() float64 {
	if s.LiveBytes <= 0 {
		return 0
	}
	return float64(s.DiskBytes) / float64(s.LiveBytes)
}

// Options configure opening a backend through storage/backends.Open. The
// engine-specific knobs are ignored by the other engine.
type Options struct {
	// ReadOnly opens the store without write access.
	ReadOnly bool
	// Faults, when non-nil, interposes the fault-injection harness on the
	// engine's IO paths — page reads/writes for the B+tree, record and
	// hint-file IO for the log engine.
	Faults *Faults

	// CacheSize bounds the B+tree's decoded-page cache (0 = default).
	CacheSize int

	// SegmentTarget is the log engine's active-segment rotation threshold
	// in bytes (0 = default 4 MiB).
	SegmentTarget int64
	// NoAutoCompact disables the log engine's post-commit background
	// compaction trigger; Compact/Checkpoint still work when called.
	NoAutoCompact bool
	// IgnoreHints makes the log engine replay every data file on open even
	// when valid hint files exist — the cold-start benchmark baseline.
	IgnoreHints bool
}
