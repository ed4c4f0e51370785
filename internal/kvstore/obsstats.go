package kvstore

import (
	"errors"
	"sync/atomic"

	"xrefine/internal/storage"
)

// OpStats is a snapshot of a store's page-IO counters. The store counts
// its own operations with plain atomics — no observability dependency —
// and the serving layer bridges the snapshot into its metrics registry as
// counter functions. The counters survive DropCaches and cover every page
// the store touched since Open, including reads done by Open's
// reachability scan.
type OpStats struct {
	// PageReads counts pages read from the pager (cache misses only —
	// decoded-cache hits never reach the pager).
	PageReads int64
	// PageWrites counts pages written to the pager (Commit and meta
	// writes).
	PageWrites int64
	// ChecksumFailures counts pages whose CRC32 trailer did not match —
	// torn writes or bit rot caught at decode time.
	ChecksumFailures int64
	// FaultsInjected counts reads/writes an armed failpoint disrupted.
	FaultsInjected int64
	// MetaFallbacks counts Opens that rejected the newest meta slot (torn
	// commit) and recovered from the previous one.
	MetaFallbacks int64
}

// opCounters is embedded in Store; all fields are atomics so readers
// under the shared read lock can count without extra synchronization.
type opCounters struct {
	pageReads     atomic.Int64
	pageWrites    atomic.Int64
	checksumFails atomic.Int64
	injected      atomic.Int64
	metaFallbacks atomic.Int64
}

// OpStats returns the current page-IO counter snapshot.
func (s *Store) OpStats() OpStats {
	return OpStats{
		PageReads:        s.ops.pageReads.Load(),
		PageWrites:       s.ops.pageWrites.Load(),
		ChecksumFailures: s.ops.checksumFails.Load(),
		FaultsInjected:   s.ops.injected.Load(),
		MetaFallbacks:    s.ops.metaFallbacks.Load(),
	}
}

// pagerRead is the counted read path: every pager read, every injected
// read fault, and every checksum verdict of the subsequent decode flows
// through the store's op counters.
func (s *Store) pagerRead(id uint32) ([]byte, error) {
	s.ops.pageReads.Add(1)
	raw, err := s.pager.read(id)
	if err != nil && errors.Is(err, storage.ErrInjected) {
		s.ops.injected.Add(1)
	}
	return raw, err
}

// pagerWrite is the counted write path.
func (s *Store) pagerWrite(id uint32, data []byte) error {
	s.ops.pageWrites.Add(1)
	err := s.pager.write(id, data)
	if err != nil && errors.Is(err, storage.ErrInjected) {
		s.ops.injected.Add(1)
	}
	return err
}

// noteDecodeErr classifies a node/meta decode failure into the counters.
func (s *Store) noteDecodeErr(err error) {
	if err != nil && errors.Is(err, ErrChecksum) {
		s.ops.checksumFails.Add(1)
	}
}

// noteMetaFallback records that Open abandoned the newest meta slot and is
// trying the previous commit's slot.
func (s *Store) noteMetaFallback() {
	s.ops.metaFallbacks.Add(1)
}
