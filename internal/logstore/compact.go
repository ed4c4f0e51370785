package logstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Compaction merges every sealed segment into one fresh segment holding
// only the records the keydir still references, writes that segment's
// hint file, atomically swaps the manifest, and deletes the old files.
// The merge set is always the full sealed prefix, which is what makes
// dropping tombstones safe: a key absent from the merged segment and from
// the newer segments after it is simply absent, with no older segment
// left to resurrect it.
//
// The pass runs concurrently with reads and writes. Sealed segments are
// immutable, so the heavy copy happens without the store lock; writes land
// in the active segment, which is never merged; and the final swap —
// retargeting keydir entries that still point into the merged set — runs
// under the write lock and skips any entry a concurrent write superseded.
// An open uncommitted batch needs care at both ends: committed records it
// shadows live only in the undo log, so the snapshot folds those into the
// merge set, and the swap retargets undo entries into the merged segment
// so Rollback and crash recovery never chase a deleted file.
//
// Crash-safety ordering: the merged file is fully written, verified by
// re-reading it end to end (catching torn writes the fault harness or a
// real disk injected), and fsynced before the manifest points at it; old
// files are deleted only after the manifest write. A crash anywhere in
// between leaves either the old manifest with the old files (the merged
// file is an unlisted stray, deleted at open) or the new manifest with
// the new file (the old files are strays). Both recover the last
// committed state.

// compactBufSize batches merged record frames per fault-harness write.
const compactBufSize = 256 << 10

// mergeRef pairs a live keydir entry with its future location.
type mergeRef struct {
	key string
	old kdEntry
	new kdEntry
}

// compactDueLocked reports whether the sealed segments hold more
// reclaimable bytes than half the live data (holding on-disk amplification
// under ~1.5x live + one active segment) and enough of them to be worth the
// churn: minCompactDead, or one segment's worth on a store whose segments
// are smaller than that — there the fixed floor would let dead bytes pile
// up to many times the live data before the first pass.
func (s *Store) compactDueLocked() bool {
	if s.noAuto || s.readOnly || len(s.segs) < 2 {
		return false
	}
	var sealedDead, live int64
	for i, seg := range s.segs {
		live += seg.live
		if i < len(s.segs)-1 {
			sealedDead += seg.size - seg.live
		}
	}
	floor := s.segTarget
	if floor > minCompactDead {
		floor = minCompactDead
	}
	return sealedDead >= floor && sealedDead*2 >= live
}

// maybeCompactLocked starts a background merge when one is due and none is
// in flight. A commit that finds a pass in flight leaves its trigger with
// that pass: the goroutine re-evaluates the threshold, under the same lock
// commits evaluate it under, before it gives up the in-flight flag — so
// dead bytes the last commits of a burst sealed are reclaimed without
// waiting for a commit that may never come.
func (s *Store) maybeCompactLocked() {
	if !s.compactDueLocked() || !s.compacting.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			err := s.Compact()
			if err != nil {
				s.compactErrors.Add(1) // the next commit retries
			}
			s.mu.Lock()
			again := err == nil && !s.closed && s.compactDueLocked()
			if !again {
				s.compacting.Store(false)
			}
			s.mu.Unlock()
			if !again {
				return
			}
		}
	}()
}

// Compact synchronously merges the sealed segments. It is a no-op with
// fewer than two segments.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Snapshot the merge set and the live entries pointing into it.
	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		return ErrClosed
	case s.readOnly:
		s.mu.Unlock()
		return ErrReadOnly
	case len(s.segs) < 2:
		s.mu.Unlock()
		return nil
	}
	sealed := append([]*segment(nil), s.segs[:len(s.segs)-1]...)
	sealedIDs := make(map[uint32]int, len(sealed))
	for i, seg := range sealed {
		sealedIDs[seg.id] = i
	}
	refs := make([]mergeRef, 0, len(s.keydir))
	for k, e := range s.keydir {
		if _, ok := sealedIDs[e.seg]; ok {
			refs = append(refs, mergeRef{key: k, old: e})
		}
	}
	// An open batch shadows committed records: its first staged Put or
	// Delete of a key repoints (or removes) the keydir entry, leaving the
	// key's last committed record reachable only through the undo log.
	// Those records must move too — otherwise deleting the merged segments
	// would strand Rollback, and a crash before Commit, on vanished files.
	// No key is double-counted: once a batch touches a key, its keydir
	// entry points into the active segment (or is gone), and only the
	// batch's first undo entry for a key can hold a sealed location.
	for _, u := range s.undo {
		if !u.had {
			continue
		}
		if _, ok := sealedIDs[u.old.seg]; ok {
			refs = append(refs, mergeRef{key: u.key, old: u.old})
		}
	}
	txid, epoch := s.txid, s.txnEpoch
	if s.committed {
		epoch = s.epoch
	}
	newID := s.nextID
	s.nextID++
	s.mu.Unlock()

	// Copy records in (segment, offset) order for sequential reads.
	sort.Slice(refs, func(i, j int) bool {
		a, b := refs[i].old, refs[j].old
		if a.seg != b.seg {
			return sealedIDs[a.seg] < sealedIDs[b.seg]
		}
		return a.off < b.off
	})

	name := segDataName(newID)
	path := filepath.Join(s.dir, name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		f.Close()
		os.Remove(path)
		os.Remove(filepath.Join(s.dir, segHintName(name)))
		return err
	}

	var (
		buf     []byte
		bufOff  int64
		size    int64
		entries = make([]hintEntry, 0, len(refs))
	)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		data := buf
		if s.faults != nil {
			out, werr := s.faults.OnWrite(buf)
			if werr != nil {
				return fmt.Errorf("logstore: merge write %s: %w", name, werr)
			}
			data = out
		}
		if len(data) > 0 {
			if _, werr := f.WriteAt(data, bufOff); werr != nil {
				return werr
			}
		}
		bufOff += int64(len(buf))
		buf = buf[:0]
		return nil
	}
	for i := range refs {
		frame, rerr := s.readSealedFrame(sealed[sealedIDs[refs[i].old.seg]], refs[i].old)
		if rerr != nil {
			return abort(rerr)
		}
		refs[i].new = kdEntry{seg: newID, off: size, size: refs[i].old.size}
		entries = append(entries, hintEntry{
			kind: kindPut,
			key:  []byte(refs[i].key),
			off:  size,
			size: refs[i].old.size,
		})
		buf = append(buf, frame...)
		size += int64(len(frame))
		if len(buf) >= compactBufSize {
			if ferr := flush(); ferr != nil {
				return abort(ferr)
			}
		}
	}
	prev := int64(len(buf))
	buf = appendCommit(buf, txid, epoch, uint64(len(refs)))
	size += int64(len(buf)) - prev
	if ferr := flush(); ferr != nil {
		return abort(ferr)
	}
	if serr := f.Sync(); serr != nil {
		return abort(serr)
	}

	// Re-read the merged file end to end before trusting it: a torn or
	// lying write must abort the pass here, not surface as a checksum
	// error on a random future Get.
	if verr := verifyMergedFile(path, size, len(refs)); verr != nil {
		return abort(verr)
	}

	if herr := s.writeHintFile(name, entries, hintFooter{dataSize: size, txid: txid, epoch: epoch}); herr != nil {
		return abort(herr)
	}

	// Swap: manifest first (still under the lock), then the keydir.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return abort(ErrClosed)
	}
	merged := &segment{id: newID, name: name, f: f, size: size, recs: int64(len(refs)) + 1}
	newSegs := make([]*segment, 0, len(s.segs))
	newSegs = append(newSegs, merged)
	var removed []*segment
	for _, seg := range s.segs {
		if _, ok := sealedIDs[seg.id]; ok {
			removed = append(removed, seg)
		} else {
			newSegs = append(newSegs, seg)
		}
	}
	oldSegs := s.segs
	s.segs = newSegs
	if merr := s.writeManifestLocked(); merr != nil {
		s.segs = oldSegs
		s.mu.Unlock()
		return abort(merr)
	}
	for i := range refs {
		if cur, ok := s.keydir[refs[i].key]; ok && cur == refs[i].old {
			// kdSet would misattribute live bytes: the old segment is
			// already out of s.segs. Retarget directly.
			s.keydir[refs[i].key] = refs[i].new
			merged.live += int64(refs[i].new.size)
		}
	}
	// A batch opened while the copy ran (the lock was free) shadows keys
	// whose committed records were snapshotted from the keydir; its undo
	// entries still point into the removed segments. Retarget them so a
	// Rollback restores keydir entries that land in the merged segment,
	// not a deleted file. (Bytes become live again via kdSet if restored.)
	if len(s.undo) > 0 {
		moved := make(map[kdEntry]kdEntry, len(refs))
		for i := range refs {
			moved[refs[i].old] = refs[i].new
		}
		for i := range s.undo {
			if u := &s.undo[i]; u.had {
				if n, ok := moved[u.old]; ok {
					u.old = n
				}
			}
		}
	}
	s.compactions.Add(1)
	s.mu.Unlock()

	for _, seg := range removed {
		seg.f.Close()
		os.Remove(filepath.Join(s.dir, seg.name))
		os.Remove(filepath.Join(s.dir, segHintName(seg.name)))
	}
	return nil
}

// readSealedFrame reads one record frame out of an immutable sealed
// segment without the store lock, verifying its checksum.
func (s *Store) readSealedFrame(seg *segment, e kdEntry) ([]byte, error) {
	if s.faults != nil {
		if err := s.faults.OnRead(); err != nil {
			return nil, fmt.Errorf("logstore: merge read %s @%d: %w", seg.name, e.off, err)
		}
	}
	buf := make([]byte, e.size)
	if _, err := seg.f.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("logstore: merge read %s @%d: %w", seg.name, e.off, err)
	}
	if _, n, err := decodeFrame(buf); err != nil || n != len(buf) {
		if err == nil {
			err = fmt.Errorf("%w: frame length disagrees with keydir", ErrCorrupt)
		}
		return nil, fmt.Errorf("logstore: merge read %s @%d: %w", seg.name, e.off, err)
	}
	return buf, nil
}

// verifyMergedFile decodes every frame of a freshly written merge output,
// checking sizes, checksums, and the trailing commit record. It streams
// the file through a bounded buffer: the merged output holds the full
// live dataset, so reading it whole would transiently cost memory
// proportional to total store size on every compaction.
func verifyMergedFile(path string, wantSize int64, wantRecs int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() != wantSize {
		return fmt.Errorf("%w: merged file is %d bytes, want %d", ErrCorrupt, st.Size(), wantSize)
	}
	fail := func(off int64, err error) error {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			err = errShortFrame
		}
		return fmt.Errorf("logstore: verify merged @%d: %w", off, err)
	}
	var (
		r         = bufio.NewReaderSize(f, compactBufSize)
		frame     []byte
		off, recs int64
		sawCommit bool
	)
	for off < wantSize {
		var hdr [frameHeaderSize]byte
		if _, rerr := io.ReadFull(r, hdr[:]); rerr != nil {
			return fail(off, rerr)
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		if size > maxBodySize {
			return fail(off, fmt.Errorf("%w: frame size %d exceeds limit", ErrCorrupt, size))
		}
		total := frameHeaderSize + int(size)
		if cap(frame) < total {
			frame = make([]byte, total)
		}
		frame = frame[:total]
		copy(frame, hdr[:])
		if _, rerr := io.ReadFull(r, frame[frameHeaderSize:]); rerr != nil {
			return fail(off, rerr)
		}
		body, n, ferr := decodeFrame(frame)
		if ferr != nil {
			return fail(off, ferr)
		}
		rec, perr := parseRecord(body)
		if perr != nil {
			return fail(off, perr)
		}
		if rec.kind == kindCommit {
			sawCommit = true
		} else {
			recs++
		}
		off += int64(n)
	}
	if !sawCommit || recs != int64(wantRecs) {
		return fmt.Errorf("%w: merged file has %d records (commit=%v), want %d", ErrCorrupt, recs, sawCommit, wantRecs)
	}
	return nil
}
