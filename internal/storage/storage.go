// Package storage defines the storage contract the index persistence
// layers write against. One engine implements it: the B+tree kvstore
// (internal/kvstore), the ordered key-value store that stands in for the
// paper's Berkeley DB. Everything above this interface — index
// persistence, document streams, live-update epoch commits, shard
// manifests — sees only the contract, and stores every value through the
// chunker (chunk.go), the one code that splits a value larger than a cell.
//
// The package is a leaf: it depends on nothing in the repository, so the
// engine and every consumer can import it without cycles. The
// constructor lives in internal/storage/backends, which imports the
// engine.
package storage

import "errors"

// ErrUnsupportedFormat is the root of the error a store written in a
// retired on-disk format fails to open with: posting lists from before the
// block codec, document streams without child ordinals, stores of the
// retired log-structured engine. Such a store is rebuilt from its source
// XML, not upgraded in place.
var ErrUnsupportedFormat = errors.New("storage: unsupported store format")

// Kind names a storage engine.
type Kind string

// KindBTree is the page-based copy-on-write B+tree (internal/kvstore):
// one file, CRC-trailed pages, dual meta slots, ordered keys native. It is
// the only engine.
const KindBTree Kind = "btree"

// ParseKind validates an engine name. The empty string means the B+tree.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "", KindBTree:
		return KindBTree, nil
	}
	return "", &UnknownKindError{Value: s}
}

// UnknownKindError reports an unrecognized engine name.
type UnknownKindError struct{ Value string }

func (e *UnknownKindError) Error() string {
	return "storage: unknown backend " + e.Value + " (want btree)"
}

// Backend is the storage contract. The semantics are the kvstore API's:
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
//     next Commit — the hook the live-update engine uses to make each
//     update batch's commit carry the epoch it produces.
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
	// StorageStats returns the engine's physical statistics.
	StorageStats() Stats
	// Close releases the store, committing pending changes when writable.
	Close() error
}

// Stats describes the physical state of a store.
type Stats struct {
	// Kind names the engine that produced the snapshot.
	Kind Kind `json:"kind"`
	// Keys is the number of stored key-value pairs.
	Keys int `json:"keys"`
	// DiskBytes is the total on-disk footprint of the page file.
	DiskBytes int64 `json:"disk_bytes"`
	// Txid is the last committed transaction sequence number.
	Txid uint64 `json:"txid"`
	// Epoch is the application epoch of the last commit.
	Epoch uint64 `json:"epoch"`
	// Pages and FreePages count allocated and reusable pages.
	Pages     int `json:"pages,omitempty"`
	FreePages int `json:"free_pages,omitempty"`
	// PageSize is the fixed page size in bytes.
	PageSize int `json:"page_size,omitempty"`
}

// Options configure opening a store through storage/backends.Open.
type Options struct {
	// ReadOnly opens the store without write access.
	ReadOnly bool
	// Faults, when non-nil, interposes the fault-injection harness on the
	// engine's page reads and writes.
	Faults *Faults
	// CacheSize bounds the B+tree's decoded-page cache (0 = default).
	CacheSize int
}
