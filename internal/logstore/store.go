// Package logstore is the Bitcask-style log-structured storage engine: a
// directory of append-only segment data files holding CRC-framed records,
// an in-memory keydir mapping every key to its newest record's location,
// background compaction that rewrites live records into a fresh segment
// and deletes the dead ones, and hint files written at seal/compaction
// time so a cold start loads the keydir in milliseconds instead of
// replaying every record.
//
// The engine implements storage.Backend with the same transactional
// semantics as the B+tree kvstore: Put/Delete stage records in the active
// segment immediately (read-your-writes via the keydir), Commit appends a
// commit record and fsyncs, Rollback truncates the staged suffix and
// rewinds the keydir, and recovery discards everything after the last
// durable commit record. The index layers above are backend-agnostic and
// produce byte-identical query responses over either engine.
package logstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"xrefine/internal/storage"
)

// Typed state errors, mirroring the kvstore set.
var (
	ErrClosed   = errors.New("logstore: store is closed")
	ErrReadOnly = errors.New("logstore: store is read-only")
	ErrTooLarge = errors.New("logstore: key+value too large")
)

const (
	// DefaultSegmentTarget is the active-segment rotation threshold.
	DefaultSegmentTarget = 4 << 20
	// maxKV bounds a key+value payload; far above any index chunk (the
	// persistence layers budget chunks well below this) and safely under
	// the codec's maxBodySize.
	maxKV = 1 << 24
	// manifestName is the segment-list file in the store directory. It is
	// the source of truth for which data files exist and in what replay
	// order; files not listed are leftovers of an interrupted rotation or
	// compaction and are deleted at open.
	manifestName = "MANIFEST"
	// kdEntryOverhead approximates the per-entry bookkeeping bytes of the
	// keydir (map header share + entry struct + string header), used for
	// the resident-bytes stat.
	kdEntryOverhead = 64
	// minCompactDead is the floor of reclaimable sealed bytes below which
	// auto-compaction never triggers — merging a near-empty store churns
	// files for no visible gain.
	minCompactDead = 64 << 10
)

// Options configure Open.
type Options struct {
	// ReadOnly opens without write access: no truncation of torn tails,
	// no compaction, mutating calls return ErrReadOnly.
	ReadOnly bool
	// Faults interposes the fault-injection harness on record appends,
	// record reads, and hint-file writes.
	Faults *storage.Faults
	// SegmentTarget rotates the active segment once it exceeds this many
	// bytes (0 = DefaultSegmentTarget).
	SegmentTarget int64
	// NoAutoCompact disables the post-commit compaction trigger; Compact
	// and Checkpoint still merge when called.
	NoAutoCompact bool
	// IgnoreHints forces full data-file replay on open even when valid
	// hint files exist — the cold-start benchmark baseline.
	IgnoreHints bool
}

// kdEntry locates a key's newest record: segment, frame offset, and full
// frame length.
type kdEntry struct {
	seg  uint32
	off  int64
	size uint32
}

// segment is one open data file.
type segment struct {
	id   uint32
	name string
	f    *os.File
	size int64 // logical size: committed + staged bytes
	live int64 // bytes of frames the keydir still references
	recs int64 // frames written (approximate after a hint load)
}

// manifest is the on-disk segment list, written atomically via rename.
type manifest struct {
	Version  int      `json:"version"`
	Next     uint32   `json:"next"`
	Segments []string `json:"segments"`
}

// undoEntry records how to rewind one staged keydir change.
type undoEntry struct {
	key string
	had bool
	old kdEntry
}

// Store is a log-structured key-value store over one directory.
type Store struct {
	dir       string
	readOnly  bool
	faults    *storage.Faults
	segTarget int64
	noAuto    bool

	mu         sync.RWMutex
	closed     bool
	keydir     map[string]kdEntry
	sortedKeys []string
	sorted     bool
	segs       []*segment // replay order; the last one is active
	nextID     uint32
	keyBytes   int64

	txid      uint64
	epoch     uint64
	committed bool
	txnStart  int64  // active-segment size at batch start
	txnEpoch  uint64 // committed epoch, restored on Rollback
	pending   uint64 // staged records in the open batch
	undo      []undoEntry

	hintLoads int
	scanLoads int

	compactMu     sync.Mutex  // serializes merge passes
	compacting    atomic.Bool // an auto-compaction goroutine is in flight
	wg            sync.WaitGroup
	compactions   atomic.Int64
	compactErrors atomic.Int64
	rotateErrors  atomic.Int64
}

var _ storage.Backend = (*Store)(nil)

func segDataName(id uint32) string { return fmt.Sprintf("seg-%08d.data", id) }

func segHintName(name string) string {
	return strings.TrimSuffix(name, ".data") + ".hint"
}

// Open opens (or, when writable, creates) a log store directory.
func Open(dir string, opts *Options) (*Store, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.SegmentTarget <= 0 {
		o.SegmentTarget = DefaultSegmentTarget
	}
	s := &Store{
		dir:       dir,
		readOnly:  o.ReadOnly,
		faults:    o.Faults,
		segTarget: o.SegmentTarget,
		noAuto:    o.NoAutoCompact,
		keydir:    make(map[string]kdEntry),
		committed: true,
	}
	if !s.readOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	names, next, haveManifest, err := s.readManifest()
	if err != nil {
		return nil, err
	}
	s.nextID = next
	if !s.readOnly {
		s.cleanStray(names)
	}
	for _, name := range names {
		seg, err := s.openSegment(name)
		if err != nil {
			s.closeSegs()
			return nil, err
		}
		s.segs = append(s.segs, seg)
		if seg.id >= s.nextID {
			s.nextID = seg.id + 1
		}
	}
	for i, seg := range s.segs {
		last := i == len(s.segs)-1
		if !o.IgnoreHints && s.loadHint(seg) {
			continue
		}
		if err := s.scanSegment(seg, last); err != nil {
			s.closeSegs()
			return nil, err
		}
	}
	if len(s.segs) == 0 {
		if s.readOnly {
			return nil, fmt.Errorf("logstore: %s: empty or missing store opened read-only", dir)
		}
		if err := s.addSegmentLocked(); err != nil {
			return nil, err
		}
	} else if !haveManifest && !s.readOnly {
		// Adopted from a bare listing: record what we found.
		if err := s.writeManifestLocked(); err != nil {
			s.closeSegs()
			return nil, err
		}
	}
	s.txnStart = s.activeLocked().size
	s.txnEpoch = s.epoch
	return s, nil
}

// readManifest returns the segment names in replay order, the next free
// segment id, and whether a manifest file was present. With no manifest
// the directory listing (ascending name = ascending id) is adopted.
func (s *Store) readManifest() ([]string, uint32, bool, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if err == nil {
		var m manifest
		if jerr := json.Unmarshal(data, &m); jerr != nil {
			return nil, 0, false, fmt.Errorf("%w: manifest: %v", ErrCorrupt, jerr)
		}
		if m.Version != 1 {
			return nil, 0, false, fmt.Errorf("%w: manifest version %d", ErrCorrupt, m.Version)
		}
		return m.Segments, m.Next, true, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, 0, false, err
	}
	ents, derr := os.ReadDir(s.dir)
	if derr != nil {
		if errors.Is(derr, fs.ErrNotExist) && s.readOnly {
			return nil, 0, false, derr
		}
		if errors.Is(derr, fs.ErrNotExist) {
			return nil, 1, false, nil
		}
		return nil, 0, false, derr
	}
	var names []string
	for _, ent := range ents {
		if n := ent.Name(); strings.HasPrefix(n, "seg-") && strings.HasSuffix(n, ".data") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, 1, false, nil
}

// cleanStray removes temp files and data/hint files the manifest does not
// know about — the debris of a rotation or compaction that did not reach
// its manifest write.
func (s *Store) cleanStray(names []string) {
	keep := make(map[string]bool, 2*len(names)+1)
	keep[manifestName] = true
	for _, n := range names {
		keep[n] = true
		keep[segHintName(n)] = true
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		if !keep[ent.Name()] {
			os.Remove(filepath.Join(s.dir, ent.Name()))
		}
	}
}

func (s *Store) openSegment(name string) (*segment, error) {
	flags := os.O_RDWR
	if s.readOnly {
		flags = os.O_RDONLY
	}
	f, err := os.OpenFile(filepath.Join(s.dir, name), flags, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	id := uint32(0)
	fmt.Sscanf(name, "seg-%08d.data", &id)
	return &segment{id: id, name: name, f: f, size: st.Size()}, nil
}

// loadHint tries the hint fast path for one segment and reports success.
// A missing, corrupt, or stale hint (its recorded data size disagrees
// with the file) simply sends the segment down the scan path.
func (s *Store) loadHint(seg *segment) bool {
	data, err := os.ReadFile(filepath.Join(s.dir, segHintName(seg.name)))
	if err != nil {
		return false
	}
	entries, ft, err := decodeHint(data)
	if err != nil || ft.dataSize != seg.size {
		return false
	}
	for _, e := range entries {
		switch e.kind {
		case kindPut:
			s.kdSet(string(e.key), kdEntry{seg: seg.id, off: e.off, size: e.size})
		case kindDelete:
			s.kdDel(string(e.key))
		}
	}
	seg.recs = int64(len(entries))
	s.txid, s.epoch = ft.txid, ft.epoch
	s.hintLoads++
	return true
}

// scanSegment replays one data file into the keydir. Keydir changes apply
// only at commit records; the suffix after the last commit — an
// uncommitted batch or a torn tail — is truncated away on the writable
// last segment, ignored on a read-only one, and a typed corruption error
// on any sealed segment (sealed files always end at a commit record).
func (s *Store) scanSegment(seg *segment, last bool) error {
	data, err := os.ReadFile(filepath.Join(s.dir, seg.name))
	if err != nil {
		return err
	}
	type stagedOp struct {
		key  string
		del  bool
		off  int64
		size uint32
	}
	var (
		batch         []stagedOp
		off           int64
		lastCommitEnd int64
		recs          int64
		commitRecs    int64 // frames up to and including the last commit
	)
	for int(off) < len(data) {
		body, n, ferr := decodeFrame(data[off:])
		if ferr != nil {
			err = ferr
			break
		}
		rec, perr := parseRecord(body)
		if perr != nil {
			err = perr
			break
		}
		switch rec.kind {
		case kindPut:
			batch = append(batch, stagedOp{key: string(rec.key), off: off, size: uint32(n)})
		case kindDelete:
			batch = append(batch, stagedOp{key: string(rec.key), del: true})
		case kindCommit:
			for _, op := range batch {
				if op.del {
					s.kdDel(op.key)
				} else {
					s.kdSet(op.key, kdEntry{seg: seg.id, off: op.off, size: op.size})
				}
			}
			batch = batch[:0]
			s.txid, s.epoch = rec.txid, rec.epoch
			lastCommitEnd = off + int64(n)
			commitRecs = recs + 1
		}
		recs++
		off += int64(n)
	}
	if err != nil || lastCommitEnd < seg.size {
		if !last {
			if err == nil {
				err = fmt.Errorf("%w: sealed segment %s has an uncommitted suffix", ErrCorrupt, seg.name)
			}
			return fmt.Errorf("logstore: sealed segment %s: %w", seg.name, err)
		}
		if !s.readOnly {
			if terr := seg.f.Truncate(lastCommitEnd); terr != nil {
				return terr
			}
		}
		seg.size = lastCommitEnd
		// The truncated suffix's frames no longer exist on disk; counting
		// them would overstate DeadRecords in StorageStats.
		recs = commitRecs
	}
	seg.recs = recs
	s.scanLoads++
	return nil
}

func (s *Store) closeSegs() {
	for _, seg := range s.segs {
		seg.f.Close()
	}
}

func (s *Store) activeLocked() *segment { return s.segs[len(s.segs)-1] }

func (s *Store) segByID(id uint32) *segment {
	for _, seg := range s.segs {
		if seg.id == id {
			return seg
		}
	}
	return nil
}

// kdSet installs a keydir entry, maintaining live-byte and key-byte
// accounting, and returns what it replaced.
func (s *Store) kdSet(key string, e kdEntry) (old kdEntry, had bool) {
	old, had = s.keydir[key]
	if had {
		if seg := s.segByID(old.seg); seg != nil {
			seg.live -= int64(old.size)
		}
	} else {
		s.keyBytes += int64(len(key))
		s.sorted = false
	}
	if seg := s.segByID(e.seg); seg != nil {
		seg.live += int64(e.size)
	}
	s.keydir[key] = e
	return old, had
}

// kdDel removes a keydir entry, maintaining the same accounting.
func (s *Store) kdDel(key string) (old kdEntry, had bool) {
	old, had = s.keydir[key]
	if !had {
		return old, false
	}
	if seg := s.segByID(old.seg); seg != nil {
		seg.live -= int64(old.size)
	}
	s.keyBytes -= int64(len(key))
	delete(s.keydir, key)
	s.sorted = false
	return old, true
}

// beginTxnLocked snapshots the rollback point when a new batch starts.
func (s *Store) beginTxnLocked() {
	if !s.committed {
		return
	}
	s.committed = false
	s.txnStart = s.activeLocked().size
	s.txnEpoch = s.epoch
	s.undo = s.undo[:0]
	s.pending = 0
}

// writeActiveLocked appends one frame to the active segment, routing the
// bytes through the fault harness. A torn write persists only the
// surviving prefix but still advances the logical size — the lost suffix
// reads back as a hole for the record CRC to catch, exactly like a real
// half-flushed append.
func (s *Store) writeActiveLocked(frame []byte) error {
	active := s.activeLocked()
	data := frame
	if s.faults != nil {
		out, err := s.faults.OnWrite(frame)
		if err != nil {
			return fmt.Errorf("logstore: append %s: %w", active.name, err)
		}
		data = out
	}
	if len(data) > 0 {
		if _, err := active.f.WriteAt(data, active.size); err != nil {
			return err
		}
	}
	active.size += int64(len(frame))
	active.recs++
	return nil
}

// readRecordLocked reads and verifies the record frame a keydir entry
// points at. Called with at least a read lock held, which also blocks
// compaction from closing the segment file mid-read.
func (s *Store) readRecordLocked(e kdEntry) (record, error) {
	if s.faults != nil {
		if err := s.faults.OnRead(); err != nil {
			return record{}, fmt.Errorf("logstore: read segment %d @%d: %w", e.seg, e.off, err)
		}
	}
	seg := s.segByID(e.seg)
	if seg == nil {
		return record{}, fmt.Errorf("%w: keydir entry references missing segment %d", ErrCorrupt, e.seg)
	}
	buf := make([]byte, e.size)
	if _, err := seg.f.ReadAt(buf, e.off); err != nil {
		return record{}, fmt.Errorf("logstore: read %s @%d: %w", seg.name, e.off, err)
	}
	body, n, err := decodeFrame(buf)
	if err != nil || n != len(buf) {
		if err == nil {
			err = fmt.Errorf("%w: frame length disagrees with keydir", ErrCorrupt)
		}
		return record{}, fmt.Errorf("logstore: %s @%d: %w", seg.name, e.off, err)
	}
	rec, err := parseRecord(body)
	if err != nil {
		return record{}, fmt.Errorf("logstore: %s @%d: %w", seg.name, e.off, err)
	}
	if rec.kind != kindPut {
		return record{}, fmt.Errorf("%w: keydir entry references a non-put record", ErrCorrupt)
	}
	return rec, nil
}

// Get returns the value stored under key.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	e, ok := s.keydir[string(key)]
	if !ok {
		return nil, false, nil
	}
	rec, err := s.readRecordLocked(e)
	if err != nil {
		return nil, false, err
	}
	return append([]byte(nil), rec.value...), true, nil
}

// Put stages value under key in the active segment.
func (s *Store) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.readOnly:
		return ErrReadOnly
	case len(key)+len(value) > maxKV:
		return ErrTooLarge
	}
	s.beginTxnLocked()
	active := s.activeLocked()
	off := active.size
	frame := appendPut(nil, key, value)
	if err := s.writeActiveLocked(frame); err != nil {
		return err
	}
	k := string(key)
	old, had := s.kdSet(k, kdEntry{seg: active.id, off: off, size: uint32(len(frame))})
	s.undo = append(s.undo, undoEntry{key: k, had: had, old: old})
	s.pending++
	return nil
}

// Delete stages removal of key, reporting whether it was present.
func (s *Store) Delete(key []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return false, ErrClosed
	case s.readOnly:
		return false, ErrReadOnly
	}
	k := string(key)
	if _, ok := s.keydir[k]; !ok {
		return false, nil
	}
	s.beginTxnLocked()
	if err := s.writeActiveLocked(appendDelete(nil, key)); err != nil {
		return false, err
	}
	old, _ := s.kdDel(k)
	s.undo = append(s.undo, undoEntry{key: k, had: true, old: old})
	s.pending++
	return true, nil
}

// DeleteRange removes every key in [lo, hi), returning how many existed.
// Keys are collected first, then deleted, mirroring the kvstore contract
// that Range callbacks must not mutate the store.
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

// rebuildSortedLocked re-derives the ordered key list from the keydir.
func (s *Store) rebuildSortedLocked() {
	keys := s.sortedKeys[:0]
	if cap(keys) < len(s.keydir) {
		keys = make([]string, 0, len(s.keydir))
	}
	for k := range s.keydir {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s.sortedKeys = keys
	s.sorted = true
}

// Range calls fn for every key in [lo, hi) in ascending byte order; nil
// hi means "to the end". The log layout has no native key order, so the
// keydir keeps a lazily re-sorted key list: mutations that change the key
// set invalidate it, the next Range rebuilds it once.
func (s *Store) Range(lo, hi []byte, fn func(k, v []byte) bool) error {
	s.mu.RLock()
	for {
		if s.closed {
			s.mu.RUnlock()
			return ErrClosed
		}
		if s.sorted {
			break
		}
		s.mu.RUnlock()
		s.mu.Lock()
		if !s.closed && !s.sorted {
			s.rebuildSortedLocked()
		}
		s.mu.Unlock()
		s.mu.RLock()
	}
	defer s.mu.RUnlock()
	keys := s.sortedKeys
	i := sort.SearchStrings(keys, string(lo))
	end := ""
	for ; i < len(keys); i++ {
		k := keys[i]
		if hi != nil {
			if end == "" {
				end = string(hi)
			}
			if k >= end {
				break
			}
		}
		e, ok := s.keydir[k]
		if !ok {
			continue
		}
		rec, err := s.readRecordLocked(e)
		if err != nil {
			return err
		}
		if !fn([]byte(k), rec.value) {
			break
		}
	}
	return nil
}

// Commit appends a commit record and fsyncs the active segment, making
// the staged batch durable, then considers rotation and compaction.
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
	if err := s.writeActiveLocked(appendCommit(nil, s.txid+1, s.epoch, s.pending)); err != nil {
		return err
	}
	if err := s.activeLocked().f.Sync(); err != nil {
		return err
	}
	s.txid++
	s.committed = true
	s.txnStart = s.activeLocked().size
	s.txnEpoch = s.epoch
	s.undo = s.undo[:0]
	s.pending = 0
	if s.activeLocked().size >= s.segTarget {
		if err := s.rotateLocked(); err != nil {
			s.rotateErrors.Add(1) // retried at the next commit
		}
	}
	s.maybeCompactLocked()
	return nil
}

// Rollback truncates the staged suffix off the active segment and rewinds
// the keydir to the committed state.
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
	active := s.activeLocked()
	if err := active.f.Truncate(s.txnStart); err != nil {
		return err
	}
	active.recs -= int64(s.pending)
	active.size = s.txnStart
	for i := len(s.undo) - 1; i >= 0; i-- {
		u := s.undo[i]
		if u.had {
			s.kdSet(u.key, u.old)
		} else {
			s.kdDel(u.key)
		}
	}
	s.epoch = s.txnEpoch
	s.undo = s.undo[:0]
	s.pending = 0
	s.committed = true
	return nil
}

// Checkpoint folds the store down to its minimal durable form: commit,
// seal the active segment (writing its hint), and merge every sealed
// segment into one hinted file. After a checkpoint, reopening loads the
// whole keydir from hint files plus a scan of one empty active segment —
// the cold-start fast path.
func (s *Store) Checkpoint() error {
	if err := s.Commit(); err != nil {
		return err
	}
	s.mu.Lock()
	var err error
	if !s.closed && !s.readOnly && s.activeLocked().size > 0 {
		err = s.rotateLocked()
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.Compact()
}

// Epoch returns the application epoch of the last commit (or staged by
// SetEpoch since).
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// SetEpoch stages an application epoch, published by the next Commit.
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
		s.beginTxnLocked()
		s.epoch = e
	}
	return nil
}

// Len returns the number of stored keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.keydir)
}

// MaxKV returns the largest key+value payload the store accepts.
func (s *Store) MaxKV() int { return maxKV }

// DropCaches is a no-op: the log engine keeps no decoded cache — every
// read goes to the OS page cache through the record CRC.
func (s *Store) DropCaches() {}

// Kind names the engine: "log".
func (s *Store) Kind() storage.Kind { return storage.KindLog }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// StorageStats returns the engine statistics snapshot.
func (s *Store) StorageStats() storage.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := storage.Stats{
		Kind:          storage.KindLog,
		Keys:          len(s.keydir),
		Txid:          s.txid,
		Epoch:         s.epoch,
		Segments:      len(s.segs),
		LiveRecords:   int64(len(s.keydir)),
		KeydirEntries: len(s.keydir),
		KeydirBytes:   s.keyBytes + int64(len(s.keydir))*kdEntryOverhead,
		Compactions:   s.compactions.Load(),
		HintLoads:     s.hintLoads,
		ScanLoads:     s.scanLoads,
	}
	var recs int64
	for _, seg := range s.segs {
		st.DiskBytes += seg.size
		st.LiveBytes += seg.live
		recs += seg.recs
	}
	st.DeadBytes = st.DiskBytes - st.LiveBytes
	if d := recs - st.LiveRecords; d > 0 {
		st.DeadRecords = d
	}
	return st
}

// Close commits pending changes (when writable), waits out any in-flight
// compaction, and releases the segment files.
func (s *Store) Close() error {
	var err error
	if !s.readOnly {
		if cerr := s.Commit(); cerr != nil && !errors.Is(cerr, ErrClosed) {
			err = cerr
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return err
	}
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait() // an in-flight compaction sees closed at swap and aborts
	s.mu.Lock()
	s.closeSegs()
	s.mu.Unlock()
	return err
}

// writeManifestLocked atomically replaces the manifest with the current
// segment list.
func (s *Store) writeManifestLocked() error {
	m := manifest{Version: 1, Next: s.nextID}
	for _, seg := range s.segs {
		m.Segments = append(m.Segments, seg.name)
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return writeFileAtomic(s.dir, manifestName, data)
}

// writeFileAtomic writes name in dir via a temp file and rename, syncing
// the file and (best-effort) the directory.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
// Best effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// addSegmentLocked creates the next data file, appends it as the active
// segment, and records it in the manifest.
func (s *Store) addSegmentLocked() error {
	id := s.nextID
	name := segDataName(id)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	s.nextID++
	syncDir(s.dir)
	s.segs = append(s.segs, &segment{id: id, name: name, f: f})
	if err := s.writeManifestLocked(); err != nil {
		s.segs = s.segs[:len(s.segs)-1]
		f.Close()
		os.Remove(filepath.Join(s.dir, name))
		return err
	}
	return nil
}

// rotateLocked seals the active segment — writing its hint file so cold
// start skips its replay — and opens a fresh one. Called only between
// commits (the staged batch always lives wholly in one segment).
func (s *Store) rotateLocked() error {
	active := s.activeLocked()
	if active.size == 0 {
		return nil
	}
	if err := s.writeHintForLocked(active); err != nil {
		// A sealed segment without a hint just replays at open; the seal
		// itself must not fail on a hint fault.
		s.rotateErrors.Add(1)
	}
	if err := s.addSegmentLocked(); err != nil {
		return err
	}
	s.txnStart = 0
	return nil
}

// writeHintForLocked derives the net keydir contribution of one sealed
// segment by re-scanning its (page-cached) records, and writes the hint
// file beside it.
func (s *Store) writeHintForLocked(seg *segment) error {
	data, err := os.ReadFile(filepath.Join(s.dir, seg.name))
	if err != nil {
		return err
	}
	if int64(len(data)) > seg.size {
		data = data[:seg.size]
	}
	type netOp struct {
		del  bool
		off  int64
		size uint32
	}
	net := make(map[string]netOp)
	type stagedOp struct {
		key string
		op  netOp
	}
	var batch []stagedOp
	var off int64
	for int(off) < len(data) {
		body, n, ferr := decodeFrame(data[off:])
		if ferr != nil {
			return fmt.Errorf("logstore: hint scan %s: %w", seg.name, ferr)
		}
		rec, perr := parseRecord(body)
		if perr != nil {
			return fmt.Errorf("logstore: hint scan %s: %w", seg.name, perr)
		}
		switch rec.kind {
		case kindPut:
			batch = append(batch, stagedOp{key: string(rec.key), op: netOp{off: off, size: uint32(n)}})
		case kindDelete:
			batch = append(batch, stagedOp{key: string(rec.key), op: netOp{del: true}})
		case kindCommit:
			for _, op := range batch {
				net[op.key] = op.op
			}
			batch = batch[:0]
		}
		off += int64(n)
	}
	keys := make([]string, 0, len(net))
	for k := range net {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]hintEntry, 0, len(keys))
	for _, k := range keys {
		op := net[k]
		e := hintEntry{kind: kindPut, key: []byte(k), off: op.off, size: op.size}
		if op.del {
			e = hintEntry{kind: kindDelete, key: []byte(k)}
		}
		entries = append(entries, e)
	}
	return s.writeHintFile(seg.name, entries, hintFooter{
		dataSize: seg.size,
		txid:     s.txid,
		epoch:    s.epoch,
	})
}

// writeHintFile encodes and atomically writes one hint file, routing the
// image through the fault harness: a torn hint write leaves a file whose
// trailing CRC fails, which open treats as "scan instead".
func (s *Store) writeHintFile(segName string, entries []hintEntry, ft hintFooter) error {
	image := encodeHint(entries, ft)
	name := segHintName(segName)
	if s.faults != nil {
		out, err := s.faults.OnWrite(image)
		if err != nil {
			return fmt.Errorf("logstore: write %s: %w", name, err)
		}
		image = out
	}
	return writeFileAtomic(s.dir, name, image)
}
