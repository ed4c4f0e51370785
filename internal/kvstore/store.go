package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"xrefine/internal/storage"
)

// Options configure Open.
type Options struct {
	// PageSize must be a power-of-two-ish size >= 512; 0 means
	// DefaultPageSize. It is fixed at creation and verified on reopen.
	PageSize int
	// ReadOnly opens the file without write access; Put/Delete/Commit
	// fail with ErrReadOnly.
	ReadOnly bool
	// CacheSize bounds the number of clean decoded pages kept in memory;
	// 0 means 8192 pages. Dirty pages are always retained until commit.
	CacheSize int
	// Faults, when non-nil, interposes the fault-injection wrapper
	// between the store and its pager — reads and writes then fail, slow
	// down, or tear according to the armed failpoints. Production code
	// leaves it nil; robustness tests arm it to prove every storage
	// fault surfaces as a typed error.
	Faults *storage.Faults
}

// ErrReadOnly is returned by mutating operations on a read-only store.
var ErrReadOnly = errors.New("kvstore: store is read-only")

// ErrTooLarge is returned when a key/value pair cannot fit a quarter page,
// the bound that guarantees node splits always make progress.
var ErrTooLarge = errors.New("kvstore: key/value too large for page size")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kvstore: store is closed")

// ErrChecksum is returned when a page's CRC32 trailer does not match its
// contents — a torn write or bit rot. It is always wrapped with the page
// ID; test with errors.Is.
var ErrChecksum = errors.New("kvstore: page checksum mismatch")

// Store is an ordered key-value store backed by a copy-on-write B+tree.
// It is safe for concurrent readers; writes are serialized internally.
// Uncommitted mutations live only in memory until Commit.
type Store struct {
	mu sync.RWMutex
	// cacheMu serializes cache population by concurrent readers; the
	// write path holds mu exclusively and so never races with readers.
	cacheMu  sync.Mutex
	pager    pager
	pageSize int
	readOnly bool
	closed   bool

	rootID    uint32
	pageCount uint32
	kvCount   uint64
	txid      uint64 // last committed transaction; slot = txid % 2
	epoch     uint64 // application epoch published with the root at Commit

	// lastMeta is the most recently committed header, the state Rollback
	// restores after a failed commit.
	lastMeta meta

	cache     map[uint32]*node
	cacheMax  int
	freeIDs   []uint32
	pendFree  []uint32
	committed bool // true when the in-memory state matches disk

	ops opCounters // page-IO counters, see OpStats
}

// MaxKV returns the largest key+value payload the store accepts.
func (s *Store) MaxKV() int { return s.pageSize/4 - 4 }

// maxNodeSize is the usable payload of a node page: the CRC trailer is
// reserved out of every page.
func (s *Store) maxNodeSize() int { return s.pageSize - pageCRCSize }

// NewMem returns a store backed by anonymous memory. Commit is a no-op
// flush; Close discards everything.
func NewMem() *Store { return NewMemWithFaults(nil) }

// NewMemWithFaults is NewMem with a fault-injection wrapper armed between
// the store and its in-memory pager. The decoded-page cache is kept small
// so repeated reads actually hit the (faulty) pager instead of memory.
func NewMemWithFaults(f *storage.Faults) *Store {
	var p pager = newMemPager(DefaultPageSize)
	cacheMax := 1 << 30 // memory store keeps everything decoded
	if f != nil {
		p = &faultPager{inner: p, f: f}
		cacheMax = 8
	}
	return &Store{
		pager:     p,
		pageSize:  DefaultPageSize,
		pageCount: 2, // both meta slots
		cache:     make(map[uint32]*node),
		cacheMax:  cacheMax,
		committed: true,
		lastMeta:  meta{pageSize: uint32(DefaultPageSize), pageCount: 2},
	}
}

// Open opens or creates a store file.
func Open(path string, opts *Options) (*Store, error) {
	o := Options{}
	if opts != nil {
		o = *opts
	}
	if o.PageSize == 0 {
		o.PageSize = DefaultPageSize
	}
	if o.PageSize < minPageSize {
		return nil, fmt.Errorf("kvstore: page size %d below minimum %d", o.PageSize, minPageSize)
	}
	if o.CacheSize == 0 {
		o.CacheSize = 8192
	}
	fp, err := newFilePager(path, o.PageSize, o.ReadOnly)
	if err != nil {
		return nil, err
	}
	var pg pager = fp
	if o.Faults != nil {
		pg = &faultPager{inner: fp, f: o.Faults}
	}
	s := &Store{
		pager:     pg,
		pageSize:  o.PageSize,
		readOnly:  o.ReadOnly,
		cache:     make(map[uint32]*node),
		cacheMax:  o.CacheSize,
		committed: true,
	}
	st, err := fp.f.Stat()
	if err != nil {
		fp.close()
		return nil, fmt.Errorf("kvstore: stat: %w", err)
	}
	if st.Size() == 0 {
		if o.ReadOnly {
			fp.close()
			return nil, errors.New("kvstore: empty file opened read-only")
		}
		s.pageCount = 2
		m := meta{pageSize: uint32(s.pageSize), pageCount: 2}
		if err := s.pagerWrite(metaPageID, encodeMeta(m, s.pageSize)); err != nil {
			fp.close()
			return nil, err
		}
		// Zero-fill the second slot so the file always spans both meta
		// pages; an all-zero slot fails the magic check and never wins.
		if err := s.pagerWrite(metaPageID2, make([]byte, s.pageSize)); err != nil {
			fp.close()
			return nil, err
		}
		if err := s.pager.sync(); err != nil {
			fp.close()
			return nil, err
		}
		s.lastMeta = m
		return s, nil
	}
	// Read both meta slots and adopt the newest valid one whose tree
	// passes the reachability scan; fall back to the other slot when the
	// newest commit turns out torn (meta or data). Pages freed by commit N
	// are reused no earlier than commit N+1, so the previous slot's tree
	// is always intact on disk.
	var cands []meta
	var firstErr error
	for _, id := range []uint32{metaPageID, metaPageID2} {
		raw, err := s.pagerRead(id)
		if err == nil {
			var m meta
			if m, err = decodeMeta(raw); err == nil {
				cands = append(cands, m)
				continue
			}
			s.noteDecodeErr(err)
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].txid > cands[j].txid })
	for i, m := range cands {
		if int(m.pageSize) != o.PageSize {
			fp.close()
			return nil, fmt.Errorf("kvstore: file page size %d != requested %d", m.pageSize, o.PageSize)
		}
		s.rootID = m.rootID
		s.pageCount = m.pageCount
		s.kvCount = m.kvCount
		s.txid = m.txid
		s.epoch = m.epoch
		if err := s.rebuildFreeList(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if i+1 < len(cands) {
				s.noteMetaFallback()
			}
			continue
		}
		s.lastMeta = m
		return s, nil
	}
	fp.close()
	if firstErr == nil {
		firstErr = errors.New("kvstore: no valid meta slot")
	}
	return nil, firstErr
}

// rebuildFreeList scans reachability from the root; every allocated page
// that is not reachable (and not the meta page) is free. The scan doubles
// as a structural integrity check.
func (s *Store) rebuildFreeList() error {
	reachable := make(map[uint32]bool, s.pageCount)
	reachable[metaPageID] = true
	reachable[metaPageID2] = true
	if s.rootID != 0 {
		var walk func(id uint32) error
		walk = func(id uint32) error {
			if id <= metaPageID2 || id >= s.pageCount {
				return fmt.Errorf("kvstore: page %d out of bounds (count %d)", id, s.pageCount)
			}
			if reachable[id] {
				return fmt.Errorf("kvstore: page %d reached twice (cycle or shared page)", id)
			}
			reachable[id] = true
			n, err := s.load(id)
			if err != nil {
				return err
			}
			if n.isLeaf {
				return nil
			}
			for _, c := range n.children {
				if err := walk(c); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(s.rootID); err != nil {
			return err
		}
	}
	s.freeIDs = s.freeIDs[:0]
	for id := uint32(1); id < s.pageCount; id++ {
		if !reachable[id] {
			s.freeIDs = append(s.freeIDs, id)
		}
	}
	return nil
}

// load returns the decoded node for id, reading and caching it on demand.
func (s *Store) load(id uint32) (*node, error) {
	if n, ok := s.cache[id]; ok {
		return n, nil
	}
	raw, err := s.pagerRead(id)
	if err != nil {
		return nil, err
	}
	n, err := decodeNode(id, raw)
	if err != nil {
		s.noteDecodeErr(err)
		return nil, err
	}
	s.cacheAdd(n)
	return n, nil
}

func (s *Store) cacheAdd(n *node) {
	if len(s.cache) >= s.cacheMax {
		// Evict an arbitrary clean page. Go map iteration order is
		// effectively random, which is good enough for this cache.
		for id, c := range s.cache {
			if !c.dirty {
				delete(s.cache, id)
				break
			}
		}
	}
	s.cache[n.id] = n
}

// alloc returns a fresh page ID, reusing committed-free pages first.
func (s *Store) alloc() uint32 {
	if n := len(s.freeIDs); n > 0 {
		id := s.freeIDs[n-1]
		s.freeIDs = s.freeIDs[:n-1]
		return id
	}
	id := s.pageCount
	s.pageCount++
	return id
}

// modifiable returns a dirty node the caller may mutate: n itself when it
// is already dirty, otherwise a COW clone under a fresh page ID (the old
// page is freed after the next commit).
func (s *Store) modifiable(n *node) *node {
	if n.dirty {
		return n
	}
	c := &node{
		id:       s.alloc(),
		isLeaf:   n.isLeaf,
		keys:     append([][]byte(nil), n.keys...),
		dirty:    true,
		children: append([]uint32(nil), n.children...),
	}
	if n.isLeaf {
		c.vals = append([][]byte(nil), n.vals...)
	}
	s.pendFree = append(s.pendFree, n.id)
	s.cache[c.id] = c
	return c
}

// Get returns the value stored under key.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	if s.rootID == 0 {
		return nil, false, nil
	}
	id := s.rootID
	for {
		n, err := s.loadLocked(id)
		if err != nil {
			return nil, false, err
		}
		if n.isLeaf {
			i, found := n.search(key)
			if !found {
				return nil, false, nil
			}
			return append([]byte(nil), n.vals[i]...), true, nil
		}
		id = n.children[n.route(key)]
	}
}

// loadLocked is load for paths that hold only the read lock: the cache map
// is not safe for concurrent mutation, so reader-side population goes
// through cacheMu.
func (s *Store) loadLocked(id uint32) (*node, error) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	return s.load(id)
}

// search finds key in a leaf: (position, found).
func (n *node) search(key []byte) (int, bool) {
	i := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) >= 0 })
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
		return i, true
	}
	return i, false
}

// route picks the child index covering key in a branch node.
func (n *node) route(key []byte) int {
	return sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(key, n.keys[i]) < 0 })
}

// Put stores value under key, replacing any previous value.
func (s *Store) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.readOnly:
		return ErrReadOnly
	case len(key) == 0:
		return errors.New("kvstore: empty key")
	case cellSize(key, value) > s.pageSize/4:
		return fmt.Errorf("%w: %d+%d bytes, max payload %d", ErrTooLarge, len(key), len(value), s.MaxKV())
	}
	s.committed = false
	if s.rootID == 0 {
		root := &node{id: s.alloc(), isLeaf: true, dirty: true}
		s.cache[root.id] = root
		s.rootID = root.id
	}
	newRoot, sep, right, err := s.insert(s.rootID, key, value)
	if err != nil {
		return err
	}
	if right != 0 {
		root := &node{
			id:       s.alloc(),
			keys:     [][]byte{sep},
			children: []uint32{newRoot, right},
			dirty:    true,
		}
		s.cache[root.id] = root
		newRoot = root.id
	}
	s.rootID = newRoot
	return nil
}

// insert adds key/value below page id, returning the (possibly COW-moved)
// page ID plus a separator and right sibling when the node split.
func (s *Store) insert(id uint32, key, value []byte) (uint32, []byte, uint32, error) {
	n, err := s.load(id)
	if err != nil {
		return 0, nil, 0, err
	}
	n = s.modifiable(n)
	if n.isLeaf {
		i, found := n.search(key)
		if found {
			n.vals[i] = append([]byte(nil), value...)
		} else {
			n.keys = insertBytes(n.keys, i, append([]byte(nil), key...))
			n.vals = insertBytes(n.vals, i, append([]byte(nil), value...))
			s.kvCount++
		}
	} else {
		ci := n.route(key)
		newChild, sep, right, err := s.insert(n.children[ci], key, value)
		if err != nil {
			return 0, nil, 0, err
		}
		n.children[ci] = newChild
		if right != 0 {
			n.keys = insertBytes(n.keys, ci, sep)
			n.children = insertUint32(n.children, ci+1, right)
		}
	}
	if n.size() <= s.maxNodeSize() {
		return n.id, nil, 0, nil
	}
	sep, rightID := s.split(n)
	return n.id, sep, rightID, nil
}

// split divides an overfull dirty node roughly in half by encoded size and
// returns the separator key and new right sibling ID.
func (s *Store) split(n *node) ([]byte, uint32) {
	// Find the split index m: keys[0:m] stay left.
	half := n.size() / 2
	acc := 0
	m := 0
	for i, k := range n.keys {
		if n.isLeaf {
			acc += cellSize(k, n.vals[i])
		} else {
			acc += 6 + len(k)
		}
		if acc >= half {
			m = i + 1
			break
		}
	}
	if m <= 0 {
		m = 1
	}
	if m >= len(n.keys) {
		m = len(n.keys) - 1
	}
	right := &node{id: s.alloc(), isLeaf: n.isLeaf, dirty: true}
	var sep []byte
	if n.isLeaf {
		sep = append([]byte(nil), n.keys[m]...)
		right.keys = append(right.keys, n.keys[m:]...)
		right.vals = append(right.vals, n.vals[m:]...)
		n.keys = n.keys[:m]
		n.vals = n.vals[:m]
	} else {
		// The middle key moves up; it is kept in neither side.
		sep = n.keys[m]
		right.keys = append(right.keys, n.keys[m+1:]...)
		right.children = append(right.children, n.children[m+1:]...)
		n.keys = n.keys[:m]
		n.children = n.children[:m+1]
	}
	s.cache[right.id] = right
	return sep, right.id
}

// Delete removes key, reporting whether it was present.
func (s *Store) Delete(key []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return false, ErrClosed
	case s.readOnly:
		return false, ErrReadOnly
	}
	if s.rootID == 0 {
		return false, nil
	}
	s.committed = false
	newRoot, deleted, empty, err := s.remove(s.rootID, key)
	if err != nil {
		return false, err
	}
	if empty {
		s.pendFree = append(s.pendFree, newRoot)
		s.rootID = 0
		return deleted, nil
	}
	s.rootID = newRoot
	// Collapse a root branch chain with single children.
	for {
		n, err := s.load(s.rootID)
		if err != nil {
			return deleted, err
		}
		if n.isLeaf || len(n.children) > 1 {
			break
		}
		s.pendFree = append(s.pendFree, n.id)
		delete(s.cache, n.id)
		s.rootID = n.children[0]
	}
	return deleted, nil
}

// remove deletes key below page id; it returns the possibly-moved page ID,
// whether the key existed, and whether the node is now empty.
func (s *Store) remove(id uint32, key []byte) (uint32, bool, bool, error) {
	n, err := s.load(id)
	if err != nil {
		return 0, false, false, err
	}
	if n.isLeaf {
		i, found := n.search(key)
		if !found {
			return n.id, false, len(n.keys) == 0, nil
		}
		n = s.modifiable(n)
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		s.kvCount--
		return n.id, true, len(n.keys) == 0, nil
	}
	ci := n.route(key)
	newChild, deleted, childEmpty, err := s.remove(n.children[ci], key)
	if err != nil {
		return 0, false, false, err
	}
	if !deleted && newChild == n.children[ci] {
		return n.id, false, false, nil
	}
	n = s.modifiable(n)
	n.children[ci] = newChild
	if childEmpty {
		s.pendFree = append(s.pendFree, newChild)
		delete(s.cache, newChild)
		n.children = append(n.children[:ci], n.children[ci+1:]...)
		ki := ci
		if ki >= len(n.keys) {
			ki = len(n.keys) - 1
		}
		if ki >= 0 {
			n.keys = append(n.keys[:ki], n.keys[ki+1:]...)
		}
	}
	return n.id, deleted, len(n.children) == 0, nil
}

func insertBytes(s [][]byte, i int, v []byte) [][]byte {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertUint32(s []uint32, i int, v uint32) []uint32 {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// Commit writes every dirty page, syncs, then publishes the new root via
// one of the two alternating meta slots. After a successful commit, pages
// freed by COW become reusable. A commit that fails midway leaves the
// previous committed state recoverable — on disk always (the previous
// meta slot and its tree are untouched), and in memory via Rollback.
func (s *Store) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.readOnly:
		return ErrReadOnly
	case s.committed:
		return nil
	}
	for id, n := range s.cache {
		if !n.dirty {
			continue
		}
		buf, err := n.encode(s.pageSize)
		if err != nil {
			return err
		}
		if err := s.pagerWrite(id, buf); err != nil {
			return err
		}
	}
	if err := s.pager.sync(); err != nil {
		return err
	}
	m := meta{
		pageSize:  uint32(s.pageSize),
		rootID:    s.rootID,
		pageCount: s.pageCount,
		kvCount:   s.kvCount,
		txid:      s.txid + 1,
		epoch:     s.epoch,
	}
	// Alternate slots by txid parity: this write can only destroy the
	// slot of the commit before last, never the most recent good one.
	slot := metaPageID
	if m.txid%2 == 1 {
		slot = metaPageID2
	}
	if err := s.pagerWrite(slot, encodeMeta(m, s.pageSize)); err != nil {
		return err
	}
	if err := s.pager.sync(); err != nil {
		return err
	}
	s.txid = m.txid
	s.lastMeta = m
	for _, n := range s.cache {
		n.dirty = false
	}
	s.freeIDs = append(s.freeIDs, s.pendFree...)
	s.pendFree = s.pendFree[:0]
	s.committed = true
	return nil
}

// Rollback discards every uncommitted mutation and restores the last
// committed state — the in-memory complement of the on-disk recovery the
// dual meta slots provide. A failed Commit leaves the store poisoned
// (in-memory root pointing at pages that may not all be durable); Rollback
// makes it serviceable again without a close/reopen cycle.
func (s *Store) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.readOnly:
		return ErrReadOnly
	case s.committed:
		return nil
	}
	for id, n := range s.cache {
		if n.dirty {
			delete(s.cache, id)
		}
	}
	m := s.lastMeta
	s.rootID = m.rootID
	s.pageCount = m.pageCount
	s.kvCount = m.kvCount
	s.epoch = m.epoch
	s.pendFree = s.pendFree[:0]
	if err := s.rebuildFreeList(); err != nil {
		return err
	}
	s.committed = true
	return nil
}

// Epoch returns the application epoch published by the last commit (or
// staged by SetEpoch since).
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// SetEpoch stages a new application epoch; the next Commit publishes it
// atomically with the root. The epoch is an opaque uint64 the embedding
// layer (the live-update engine) uses to tie a committed tree to its WAL
// position: replay after a crash resumes from the epoch the store actually
// reached.
func (s *Store) SetEpoch(e uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.readOnly:
		return ErrReadOnly
	}
	if s.epoch != e {
		s.epoch = e
		s.committed = false
	}
	return nil
}

// DeleteRange removes every key in [lo, hi), returning how many existed.
// Keys are collected first (cursors do not survive writes), then deleted.
func (s *Store) DeleteRange(lo, hi []byte) (int, error) {
	var keys [][]byte
	if err := s.Range(lo, hi, func(k, v []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		return true
	}); err != nil {
		return 0, err
	}
	for _, k := range keys {
		if _, err := s.Delete(k); err != nil {
			return 0, err
		}
	}
	return len(keys), nil
}

// Close commits pending changes (when writable) and releases the file.
func (s *Store) Close() error {
	if !s.readOnly {
		if err := s.Commit(); err != nil && !errors.Is(err, ErrClosed) {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.pager.close()
}

// DropCaches evicts every clean decoded page, forcing subsequent reads
// back to the pager. Dirty (uncommitted) pages are retained. It exists for
// memory-pressure relief and for fault-injection tests that need reads to
// actually reach the (faulty) pager.
func (s *Store) DropCaches() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	for id, n := range s.cache {
		if !n.dirty {
			delete(s.cache, id)
		}
	}
}

// Len returns the number of stored keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int(s.kvCount)
}

// Stats describes the physical state of the store.
type Stats struct {
	Keys      int
	Pages     int
	FreePages int
	FileSize  int64
	PageSize  int
	// Txid is the last committed transaction sequence number.
	Txid uint64
	// Epoch is the application epoch of the last commit (see SetEpoch).
	Epoch uint64
}

// Stats returns physical storage statistics.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Keys:      int(s.kvCount),
		Pages:     int(s.pageCount),
		FreePages: len(s.freeIDs) + len(s.pendFree),
		FileSize:  pagerSize(s.pager),
		PageSize:  s.pageSize,
		Txid:      s.txid,
		Epoch:     s.epoch,
	}
}
