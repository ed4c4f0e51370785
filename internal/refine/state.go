package refine

import (
	"runtime"
	"sync"
	"unsafe"
)

// This file is the walk's reusable memory. A Scan is one query's state:
// the walker's buffers, the SLCA scratch and the slabs its results are cut
// from, the dynamic program's scratch and (for a lone walk) its memo, the
// co-occurrence counter, and the SortedList with its items and extend
// queue. The kept candidates' results end in the slab the walk cut its
// SLCA results from, or, after a merge, in the merge's. A walk borrows a
// Scan from a bounded free list and the outcome hands it back on Release,
// so a warm state serves a query from memory it already holds. An outcome
// that is never released leaves its Scan to the collector.
//
// A lone walk's outcome lives in its own Scan. A shard walk's scans each
// borrow one; MergeScans copies the kept runs into a Scan of the query's
// own and returns the shard scans at once. A hedge loser's scan is never
// merged or released: the collector takes it, so no scan is ever shared
// between two queries.

// maxFreeScans bounds the number of idle Scans the free list keeps. A
// walk is CPU work, so about GOMAXPROCS of them run at once; a router
// query holds one state per shard scan and borrows one more for its
// merge, so the list has room for the widest merge besides. Walks in
// flight beyond that each allocate a state of their own, and the list
// keeps at most this many times retainBytes alive. The caller holds the
// list's lock.
func maxFreeScans() int { return runtime.GOMAXPROCS(0) + freeScans.fanout }

// retainBytes caps the buffers of a Scan the free list takes back. A query
// with a huge K or one that matches nearly everything grows its Scan past
// it; such a Scan is left to the collector on release, so one hostile
// query does not pin its memory for the life of the process.
const retainBytes = 2 << 20

// freeScans is the free list. It is explicit rather than a sync.Pool so
// that which Scan a walk gets — and so what it allocates — does not depend
// on the garbage collector or the race detector.
var freeScans struct {
	sync.Mutex
	scans  []*Scan
	fanout int // the most scans one merge has taken
}

// getScan borrows a Scan from the free list, or makes one.
func getScan() *Scan {
	freeScans.Lock()
	defer freeScans.Unlock()
	n := len(freeScans.scans)
	if n == 0 {
		return new(Scan)
	}
	s := freeScans.scans[n-1]
	freeScans.scans[n-1] = nil
	freeScans.scans = freeScans.scans[:n-1]
	return s
}

// getMergeScan borrows the Scan a merge of n scans lives in, and makes
// room in the free list for all n+1 to come back.
func getMergeScan(n int) *Scan {
	freeScans.Lock()
	freeScans.fanout = max(freeScans.fanout, n)
	freeScans.Unlock()
	return getScan()
}

// Release hands the scan back to the free list: every candidate, result
// and count read from it, and any outcome built on it, must not be read
// afterwards. A scan whose buffers outgrew retainBytes, or one released
// while the list is full, is dropped instead. Release of nil does nothing.
func (s *Scan) Release() {
	if s == nil || s.retained() > retainBytes {
		return
	}
	s.reset()
	freeScans.Lock()
	defer freeScans.Unlock()
	if len(freeScans.scans) < maxFreeScans() {
		freeScans.scans = append(freeScans.scans, s)
	}
}

// Release hands the memory the outcome lives in — its candidates, their
// results and its co-occurrence counts — back to the walk's free list.
// Nothing of the outcome may be read afterwards, and it must be released
// at most once: it lives in its state, so a second Release after another
// walk has borrowed that state would hand back the other walk's memory.
// An outcome that is not released is left to the collector; one not
// built by a walk holds nothing to release.
func (o *TopKOutcome) Release() {
	if o != nil {
		s := o.st
		o.st = nil
		s.Release()
	}
}

// reset empties the scan for its next walk: lengths go to zero, buffers
// stay, and every reference into the last query's index, rules and
// registry is dropped so an idle scan pins none of them.
func (s *Scan) reset() {
	s.walk = nil
	s.own.memo.reset()
	s.list.reset(1)
	s.out = TopKOutcome{}
	s.partitions, s.slcaCalls, s.slcaPostings = 0, 0, 0
	s.rqGenerated, s.rqPruned = 0, 0
	s.lists = clearAll(s.lists)
	s.w.reset()
	s.slca.sub = clearAll(s.slca.sub)
	s.slca.slab.reset()
	s.slca.ids.reset()
	s.dp.words, s.dp.cols = clearAll(s.dp.words), s.dp.cols[:0]
	s.dp.steps = clearAll(s.dp.steps)
	s.co.reset()
	s.runs = clearAll(s.runs)
}

// retained is the byte size of the scan's buffers, what the free list
// would keep alive. Maps are counted by the items they index.
func (s *Scan) retained() int {
	return s.slca.slab.bytes() + s.slca.ids.bytes() +
		s.list.slab.bytes() + s.list.later.bytes() + 2*sizeOf(s.list.items) +
		s.own.memo.entries.bytes() + sizeOf(s.own.memo.masks) +
		sizeOf(s.w.posts) + sizeOf(s.w.arena) + sizeOf(s.co.buf) +
		sizeOf(s.dp.sets) + sizeOf(s.dp.steps) + sizeOf(s.dp.cells) + sizeOf(s.dp.next)
}

// clearAll zeroes s up to its capacity and returns it empty.
func clearAll[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// resize returns s with length n and every element zero, reusing its
// array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// sizeOf is the byte size of s's array.
func sizeOf[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}

// arena hands out slices cut from chunks a Scan keeps across walks. reset
// frees them for reuse without giving them up, so a warm scan cuts what
// it needs from memory it already holds. Chunks never move: a slice cut
// from one stays valid until the next reset. Every element past a
// chunk's length is zero, so what take returns is zeroed.
type arena[T any] struct {
	chunks [][]T
	cur    int // the chunk being cut
}

// firstChunkBytes sizes an arena's first chunk; each later one doubles.
const firstChunkBytes = 2 << 10

// tail returns the unused tail of the current chunk, empty and of
// capacity at least n, for the caller to append up to n elements into and
// then claim with cut.
func (a *arena[T]) tail(n int) []T {
	for ; a.cur < len(a.chunks); a.cur++ {
		if c := a.chunks[a.cur]; cap(c)-len(c) >= n {
			return c[len(c):len(c):cap(c)]
		}
	}
	var z T
	size := max(n, firstChunkBytes/int(unsafe.Sizeof(z)))
	if k := len(a.chunks); k > 0 {
		size = max(size, 2*cap(a.chunks[k-1]))
	}
	a.chunks = append(a.chunks, make([]T, 0, size))
	return a.chunks[a.cur]
}

// cut claims the first n elements of the current chunk's tail, capped so
// that an append to them copies.
func (a *arena[T]) cut(n int) []T {
	c := a.chunks[a.cur]
	a.chunks[a.cur] = c[:len(c)+n]
	return c[len(c) : len(c)+n : len(c)+n]
}

// take returns n zero elements.
func (a *arena[T]) take(n int) []T {
	a.tail(n)
	return a.cut(n)
}

// reset zeroes what the last walk cut and makes the arena free again. A
// walk that outgrew the first chunk leaves one chunk in place of all of
// them, a quarter larger than what it used, so a warm arena holds about
// what its largest walk needed, not the doubling steps it took to get
// there, and grows again only for a walk that needs more. What an idle
// Scan holds is live heap, which the collector paces itself by.
func (a *arena[T]) reset() {
	a.cur = 0
	if len(a.chunks) > 1 {
		used := 0
		for _, c := range a.chunks {
			used += len(c)
		}
		size := max(used, cap(a.chunks[0]))
		clear(a.chunks)
		a.chunks = append(a.chunks[:0], make([]T, 0, size+size/4))
		return
	}
	for i, c := range a.chunks {
		clear(c)
		a.chunks[i] = c[:0]
	}
}

// bytes is the byte size of the arena's chunks.
func (a *arena[T]) bytes() int {
	n := 0
	for _, c := range a.chunks {
		n += sizeOf(c)
	}
	return n
}
