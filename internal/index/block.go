package index

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"xrefine/internal/dewey"
	"xrefine/internal/xmltree"
)

// This file is the succinct posting-list codec: postings are grouped into
// fixed-size blocks whose Dewey IDs are stored as shared-prefix-length +
// varint-delta components and whose node types are interned per-list
// ordinals, with a skip entry (first ID, byte offset, count) per block so
// seeks binary-search the skip table and decode only the blocks they
// touch. The encoded form is also the persisted form (persist.go writes
// the byte stream straight into store cells), so disk and RAM shrink
// together. Consecutive Dewey labels in a document-ordered list share
// long prefixes, which is where the compression comes from — the idea of
// running the paper's algorithms directly over a compressed structure
// follows Böttcher et al.'s DAG-compression line of work.
//
// Layout of one encoded list (listCore.enc):
//
//	block*     where block := [uvarint count][uvarint payloadLen][payload]
//	payload    := posting*
//	posting    := [uvarint shared][uvarint extra][extra × uvarint comp][uvarint typeOrd]
//
// The first posting of every block has shared == 0 (a full ID), making
// blocks self-contained; within a block, shared is the common-prefix
// length with the previous posting. typeOrd indexes the list's private
// type table (listCore.types) — interning keeps the ordinal a one-byte
// varint for virtually every list.
const blockMaxPostings = 128

// blockRef is one skip-table entry: enough to find a block, know what it
// covers, and binary-search over blocks without decoding any of them.
type blockRef struct {
	first dewey.ID // first posting's full ID (owned copy)
	off   uint32   // byte offset of the block header in enc
	start uint32   // global index of the block's first posting
	n     uint32   // postings in the block
}

// listCore is the shared, immutable backbone of a List and all its
// windows: the encoded bytes, the skip table, and the per-list type
// table. It carries no decode state — decode scratch lives on the cursors
// that read it — so it is trivially safe for any number of concurrent
// readers.
type listCore struct {
	enc   []byte
	skip  []blockRef
	n     int
	types []*xmltree.Type // type ordinal -> interned node type
}

// Package-level codec counters, bridged into the metrics registry by the
// serving layer (internal/core) as the xrefine_index_block_* families.
// They are package-global rather than per-index so the codec stays free
// of plumbing; per-index residency is exposed via Index.ResidentBytes.
var (
	blockDecodes         atomic.Uint64
	blockDecodedPostings atomic.Uint64
	cursorScratchGets    atomic.Uint64
	cursorScratchNews    atomic.Uint64
)

// BlockOpStats is a snapshot of the package-level codec counters.
type BlockOpStats struct {
	// Decodes counts block decode operations.
	Decodes uint64
	// DecodedPostings counts postings materialized by those decodes.
	DecodedPostings uint64
	// CursorScratchGets counts cursor scratch-buffer acquisitions.
	CursorScratchGets uint64
	// CursorScratchNews counts pool misses that allocated fresh scratch.
	CursorScratchNews uint64
}

// BlockStats returns the current codec counter snapshot.
func BlockStats() BlockOpStats {
	return BlockOpStats{
		Decodes:           blockDecodes.Load(),
		DecodedPostings:   blockDecodedPostings.Load(),
		CursorScratchGets: cursorScratchGets.Load(),
		CursorScratchNews: cursorScratchNews.Load(),
	}
}

// blockWriter encodes postings appended in document order into a
// listCore. It is the single encoder behind NewList, the lazy list
// loader and the mutator's copy-on-write clones.
type blockWriter struct {
	term       string
	checkOrder bool

	enc   []byte
	skip  []blockRef
	types []*xmltree.Type // the list's types, by ordinal
	n     int

	prev       dewey.ID // last appended ID (reused buffer)
	blockBuf   []byte   // staged payload of the open block
	blockN     int
	blockFirst dewey.ID // first ID of the open block, kept by its blockRef
}

func newBlockWriter(term string, checkOrder bool) *blockWriter {
	return &blockWriter{term: term, checkOrder: checkOrder}
}

// Append encodes one posting. IDs must arrive in strictly increasing
// document order when order checking is on; the bytes of id are copied,
// so callers may reuse the backing array (cursor scratch included).
func (w *blockWriter) Append(id dewey.ID, t *xmltree.Type) error {
	if len(id) == 0 {
		return fmt.Errorf("index: encode %q: empty dewey ID", w.term)
	}
	if t == nil {
		return fmt.Errorf("index: encode %q: posting without a type", w.term)
	}
	shared := 0
	if w.n > 0 {
		shared = dewey.LCALen(w.prev, id)
		if w.checkOrder {
			// prev < id iff prev is a strict prefix, or they diverge
			// with prev's component smaller.
			if shared == len(id) || (shared < len(w.prev) && w.prev[shared] > id[shared]) {
				return fmt.Errorf("index: postings out of document order for %s", w.term)
			}
		}
	}
	if w.blockN == blockMaxPostings {
		w.flushBlock()
	}
	if w.blockN == 0 {
		shared = 0
		w.blockFirst = id.Clone()
	}
	w.blockBuf = binary.AppendUvarint(w.blockBuf, uint64(shared))
	w.blockBuf = binary.AppendUvarint(w.blockBuf, uint64(len(id)-shared))
	for _, c := range id[shared:] {
		w.blockBuf = binary.AppendUvarint(w.blockBuf, uint64(c))
	}
	// A list holds few types, so a scan beats a map.
	ord := slices.Index(w.types, t)
	if ord < 0 {
		ord = len(w.types)
		w.types = append(w.types, t)
	}
	w.blockBuf = binary.AppendUvarint(w.blockBuf, uint64(ord))
	w.prev = append(w.prev[:0], id...)
	w.blockN++
	w.n++
	return nil
}

func (w *blockWriter) flushBlock() {
	if w.blockN == 0 {
		return
	}
	w.skip = append(w.skip, blockRef{
		first: w.blockFirst,
		off:   uint32(len(w.enc)),
		start: uint32(w.n - w.blockN),
		n:     uint32(w.blockN),
	})
	w.enc = binary.AppendUvarint(w.enc, uint64(w.blockN))
	w.enc = binary.AppendUvarint(w.enc, uint64(len(w.blockBuf)))
	w.enc = append(w.enc, w.blockBuf...)
	w.blockBuf = w.blockBuf[:0]
	w.blockN = 0
}

// Finish seals the open block and returns the completed core.
func (w *blockWriter) Finish() *listCore {
	w.flushBlock()
	return &listCore{enc: w.enc, skip: w.skip, n: w.n, types: w.types}
}

// findBlock returns the index of the block containing global posting g.
func (c *listCore) findBlock(g int) int {
	return sort.Search(len(c.skip), func(b int) bool {
		return int(c.skip[b].start) > g
	}) - 1
}

// decodeBlockInto decodes block b, reusing posts/comps as scratch, and
// returns the filled slices (reallocated when too small). Every
// posts[i].ID points into the returned comps arena — valid only until
// the scratch is reused.
func (c *listCore) decodeBlockInto(b int, posts []Posting, comps []uint32) ([]Posting, []uint32, error) {
	ref := c.skip[b]
	buf := c.enc[ref.off:]
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return posts, comps, fmt.Errorf("index: block %d: bad count header", b)
	}
	buf = buf[sz:]
	payloadLen, sz := binary.Uvarint(buf)
	if sz <= 0 || int(payloadLen) > len(buf[sz:]) {
		return posts, comps, fmt.Errorf("index: block %d: bad length header", b)
	}
	buf = buf[sz : sz+int(payloadLen)]
	posts = posts[:0]
	comps = comps[:0]
	// spans[i] is the comps offset where posting i's ID starts; IDs are
	// fixed up after the parse because comps may reallocate while
	// growing.
	var spanArr [blockMaxPostings + 1]uint32
	spans := spanArr[:0]
	prevStart, prevLen := 0, 0
	for i := 0; i < int(n); i++ {
		shared, extra, rest, err := readPostingHeader(buf)
		if err != nil {
			return posts, comps, fmt.Errorf("index: block %d posting %d: %w", b, i, err)
		}
		buf = rest
		if shared > prevLen {
			return posts, comps, fmt.Errorf("index: block %d posting %d: shared %d > prev %d", b, i, shared, prevLen)
		}
		base := len(comps)
		comps = append(comps, comps[prevStart:prevStart+shared]...)
		for j := 0; j < extra; j++ {
			v, sz := binary.Uvarint(buf)
			if sz <= 0 {
				return posts, comps, fmt.Errorf("index: block %d posting %d: truncated component", b, i)
			}
			buf = buf[sz:]
			comps = append(comps, uint32(v))
		}
		ord, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return posts, comps, fmt.Errorf("index: block %d posting %d: truncated type", b, i)
		}
		buf = buf[sz:]
		if int(ord) >= len(c.types) {
			return posts, comps, fmt.Errorf("index: block %d posting %d: type ordinal %d out of range", b, i, ord)
		}
		if i < len(spanArr) {
			spans = append(spans, uint32(base))
		}
		posts = append(posts, Posting{Type: c.types[ord]})
		prevStart, prevLen = base, shared+extra
	}
	spans = append(spans, uint32(len(comps)))
	if len(posts)+1 != len(spans) {
		return posts, comps, fmt.Errorf("index: block %d: count %d exceeds block capacity", b, n)
	}
	for i := range posts {
		posts[i].ID = dewey.ID(comps[spans[i]:spans[i+1]:spans[i+1]])
	}
	blockDecodes.Add(1)
	blockDecodedPostings.Add(uint64(n))
	return posts, comps, nil
}

func readPostingHeader(buf []byte) (shared, extra int, rest []byte, err error) {
	s, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, 0, buf, fmt.Errorf("truncated shared length")
	}
	buf = buf[sz:]
	e, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, 0, buf, fmt.Errorf("truncated extra length")
	}
	return int(s), int(e), buf[sz:], nil
}

// memoryBytes is the resident cost of the core: encoded payload, skip
// table (entry struct plus its first-ID copy), and the type table.
func (c *listCore) memoryBytes() int {
	if c == nil {
		return 0
	}
	n := len(c.enc)
	for _, ref := range c.skip {
		n += 48 + 4*len(ref.first) // struct + slice header + components
	}
	n += 8 * len(c.types)
	return n
}

// parseCore rebuilds a listCore from an encoded byte stream and its type
// table — the kvstore load path. It walks the block headers to rebuild
// the skip table, validating framing (counts, lengths, self-contained and
// strictly increasing block firsts) without decoding payloads; payload
// integrity is already covered by the store's CRC page framing, so a
// decode failure past this point is a programming bug, not bad input.
func parseCore(enc []byte, types []*xmltree.Type) (*listCore, error) {
	core := &listCore{enc: enc, types: types}
	off := 0
	var prevFirst dewey.ID
	for off < len(enc) {
		buf := enc[off:]
		n, sz := binary.Uvarint(buf)
		if sz <= 0 || n == 0 || n > blockMaxPostings {
			return nil, fmt.Errorf("index: parse block %d: bad posting count", len(core.skip))
		}
		hdr := sz
		payloadLen, sz := binary.Uvarint(buf[hdr:])
		if sz <= 0 {
			return nil, fmt.Errorf("index: parse block %d: bad payload length", len(core.skip))
		}
		hdr += sz
		if int(payloadLen) > len(buf)-hdr {
			return nil, fmt.Errorf("index: parse block %d: truncated payload", len(core.skip))
		}
		payload := buf[hdr : hdr+int(payloadLen)]
		shared, extra, rest, err := readPostingHeader(payload)
		if err != nil {
			return nil, fmt.Errorf("index: parse block %d: %w", len(core.skip), err)
		}
		if shared != 0 || extra == 0 {
			return nil, fmt.Errorf("index: parse block %d: first posting not self-contained", len(core.skip))
		}
		first := make(dewey.ID, 0, extra)
		for j := 0; j < extra; j++ {
			v, sz := binary.Uvarint(rest)
			if sz <= 0 {
				return nil, fmt.Errorf("index: parse block %d: truncated first ID", len(core.skip))
			}
			rest = rest[sz:]
			first = append(first, uint32(v))
		}
		if prevFirst != nil && dewey.Compare(prevFirst, first) >= 0 {
			return nil, fmt.Errorf("index: parse block %d: block firsts out of document order", len(core.skip))
		}
		core.skip = append(core.skip, blockRef{
			first: first,
			off:   uint32(off),
			start: uint32(core.n),
			n:     uint32(n),
		})
		core.n += int(n)
		prevFirst = first
		off += hdr + int(payloadLen)
	}
	return core, nil
}

// blockScratch is the reusable decode buffer behind a Cursor: the
// materialized postings of one block and the component arena their IDs
// point into. Buffers are pooled; a scratch must never be read after its
// cursor is closed (the -race aliasing stress test enforces the
// discipline).
type blockScratch struct {
	posts []Posting
	comps []uint32
}

var scratchPool = sync.Pool{New: func() any {
	cursorScratchNews.Add(1)
	return &blockScratch{
		posts: make([]Posting, 0, blockMaxPostings),
		comps: make([]uint32, 0, 1024),
	}
}}

// Cursor iterates a List (or window) in document order, decoding one
// block at a time into a pooled scratch buffer. It is the zero-garbage
// access path for every read of a list: the partition walker, the
// co-occurrence merge, SLCA's decode, and the one-block seeks of
// List.SeekGE.
//
// Sharing contract: a Cursor is single-goroutine. A Posting (and its ID)
// returned by the cursor is valid only until the cursor moves to a
// different block or is closed — callers that retain an ID across those
// events must copy it (AppendUntil copies into a caller-owned arena).
type Cursor struct {
	l       *List
	scratch *blockScratch
	blk     int // decoded block index, -1 when none
	bStart  int // global range of the decoded block
	bEnd    int
	g       int // current global position; l.hi when exhausted
}

// NewCursor returns a cursor positioned at the first posting of l. Close
// it when done to recycle its decode buffer.
func (l *List) NewCursor() *Cursor {
	c := l.cursor()
	return &c
}

// cursor is NewCursor by value, for a read that keeps its cursor on the
// stack.
func (l *List) cursor() Cursor {
	cursorScratchGets.Add(1)
	return Cursor{
		l:       l,
		scratch: scratchPool.Get().(*blockScratch),
		blk:     -1,
		g:       l.winLo(),
	}
}

// Close recycles the cursor's scratch buffer. The cursor (and any
// posting it returned) must not be used afterwards.
func (c *Cursor) Close() {
	if c.scratch != nil {
		scratchPool.Put(c.scratch)
		c.scratch = nil
	}
	c.blk = -1
	c.bStart, c.bEnd = 0, 0
}

// Pos returns the cursor's position as a window-relative index.
func (c *Cursor) Pos() int { return c.g - c.l.winLo() }

// Valid reports whether the cursor is on a posting (not exhausted).
func (c *Cursor) Valid() bool { return c.g < c.l.winHi() }

// Next advances to the following posting.
func (c *Cursor) Next() { c.g++ }

// Seek positions the cursor at window-relative index i.
func (c *Cursor) Seek(i int) { c.g = c.l.winLo() + i }

// Posting returns the posting under the cursor, decoding its block into
// the cursor's scratch if needed. See the sharing contract on Cursor.
func (c *Cursor) Posting() Posting {
	core := c.l.core
	if c.g < c.bStart || c.g >= c.bEnd {
		c.decode(core.findBlock(c.g))
	}
	return c.scratch.posts[c.g-c.bStart]
}

// ID returns the Dewey ID under the cursor (same contract as Posting).
func (c *Cursor) ID() dewey.ID { return c.Posting().ID }

func (c *Cursor) decode(b int) {
	core := c.l.core
	posts, comps, err := core.decodeBlockInto(b, c.scratch.posts, c.scratch.comps)
	c.scratch.posts, c.scratch.comps = posts, comps
	if err != nil {
		panic(err)
	}
	c.blk = b
	c.bStart = int(core.skip[b].start)
	c.bEnd = c.bStart + len(posts)
}

// AppendUntil appends the postings from the cursor's position up to, not
// including, the first with ID >= end (to the window's end when end is
// nil) to dst, copying their IDs into arena, and leaves the cursor on
// that first posting. It returns dst and arena grown. Each appended ID is
// a capacity-capped slice of arena: it stays valid after the cursor moves
// or closes, until the caller reuses the arena's memory.
func (c *Cursor) AppendUntil(dst []Posting, arena []uint32, end dewey.ID) ([]Posting, []uint32) {
	for hi := c.l.winHi(); c.g < hi; c.g++ {
		p := c.Posting()
		if end != nil && dewey.Compare(p.ID, end) >= 0 {
			break
		}
		a := len(arena)
		arena = append(arena, p.ID...)
		dst = append(dst, Posting{ID: arena[a:len(arena):len(arena)], Type: p.Type})
	}
	return dst, arena
}

// SeekGE advances the cursor to the first posting with ID >= d at or
// after its current position and returns the new window-relative
// position (Len() when exhausted). Backward targets leave the cursor
// where it is — the partition walk only ever moves forward.
func (c *Cursor) SeekGE(d dewey.ID) int {
	core := c.l.core
	if core == nil {
		// Empty list (unindexed term): nothing to seek over.
		return c.Pos()
	}
	hi := c.l.winHi()
	// Fast path: the target lies inside the already-decoded block.
	if c.g >= c.bStart && c.g < c.bEnd {
		posts := c.scratch.posts
		rel := c.g - c.bStart
		if last := posts[len(posts)-1].ID; dewey.Compare(last, d) >= 0 {
			k := rel + sort.Search(len(posts)-rel, func(i int) bool {
				return dewey.Compare(posts[rel+i].ID, d) >= 0
			})
			c.g = c.bStart + k
			if c.g > hi {
				c.g = hi
			}
			return c.Pos()
		}
		// Target is past this block; fall through to the skip search.
		c.g = c.bEnd
	}
	if c.g >= hi {
		c.g = hi
		return c.Pos()
	}
	// Skip-table search over the blocks at or after the cursor.
	b0 := core.findBlock(c.g)
	j := b0 + sort.Search(len(core.skip)-b0, func(b int) bool {
		return dewey.Compare(core.skip[b0+b].first, d) >= 0
	})
	if j > b0 {
		b := j - 1
		c.decode(b)
		posts := c.scratch.posts
		rel := 0
		if c.g > c.bStart {
			rel = c.g - c.bStart
		}
		k := rel + sort.Search(len(posts)-rel, func(i int) bool {
			return dewey.Compare(posts[rel+i].ID, d) >= 0
		})
		c.g = c.bStart + k
	}
	// j == b0 means block b0's first ID is already >= d, so the posting
	// under the cursor (>= that first ID) satisfies too: stay put.
	if c.g > hi {
		c.g = hi
	}
	return c.Pos()
}
