package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"xrefine/internal/dewey"
	"xrefine/internal/storage"
	"xrefine/internal/xmltree"
)

// On-disk layout inside the kvstore (all keys are byte strings; '\x00'
// separates components so terms cannot collide with structure):
//
//	M\x00types                  node-type registry
//	M\x00types\x00<seq BE32>     its continuation chunks, when it outgrows a cell
//	M\x00doc                    document-level stats (N_T, G_T, partitions)
//	M\x00doc\x00<seq BE32>       their continuation chunks
//	F\x00<term>                 frequent-table row: list length + per-type df/tf
//	L\x00<term>\x00<chunk BE32> posting-list chunk (see below)
//
// A term's chunks, concatenated in key order (which is chunk order), form
// one byte stream: [uvarint typeCount][typeCount × uvarint global type ID]
// followed by the list's block-encoded payload exactly as it lives in RAM
// (block.go) — the encoded form IS the persisted form, so loading a list
// is a concatenation plus a skip-table walk, never a re-encode, and disk
// shrinks with memory. Chunk boundaries are arbitrary byte splits sized to
// the store's quarter-page cell bound; blocks need not align with chunks.
//
// Stores written before the block codec used one delta-encoded posting
// per cell with each chunk self-contained, so their first payload byte is
// always 0x00 (first cell's shared-prefix length) where this stream has its
// type count, a uvarint >= 1 for any non-empty list. Such a store is
// refused at Load with storage.ErrUnsupportedFormat.

// FormatVersion names the on-disk posting format, the block-encoded stream
// described above. Exported so the serving layer can label
// xrefine_build_info with the format it reads and writes.
const FormatVersion = "2"

const (
	metaTypesKey = "M\x00types"
	metaDocKey   = "M\x00doc"
	freqPrefix   = "F\x00"
	listPrefix   = "L\x00"
)

// chunkBudget caps encoded chunk payloads comfortably under the B+tree backend's
// quarter-page cell limit for the default page size.
const chunkBudget = 768

// Save writes the whole index into the store and commits. Posting lists of
// a lazily-loaded index are forced resident first.
func (ix *Index) Save(s storage.Backend) error {
	if err := ix.saveMeta(s); err != nil {
		return err
	}
	for _, term := range ix.Vocabulary() {
		l, err := ix.List(term)
		if err != nil {
			return err
		}
		e := ix.terms[term]
		row := encodeFreqRow(uint32(l.Len()), e.stats)
		if err := s.Put(freqKey(term), row); err != nil {
			return fmt.Errorf("index: save freq %q: %w", term, err)
		}
		if err := saveChunks(s, term, l); err != nil {
			return err
		}
	}
	return s.Commit()
}

func freqKey(term string) []byte { return append([]byte(freqPrefix), term...) }

func listChunkKey(term string, chunk uint32) []byte {
	k := append([]byte(listPrefix), term...)
	k = append(k, 0)
	var be [4]byte
	binary.BigEndian.PutUint32(be[:], chunk)
	return append(k, be[:]...)
}

func (ix *Index) encodeDocMeta() []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(ix.NodeCount))
	b = binary.AppendUvarint(b, uint64(len(ix.nt)))
	for _, v := range ix.nt {
		b = binary.AppendUvarint(b, uint64(v))
	}
	for _, v := range ix.gt {
		b = binary.AppendUvarint(b, uint64(v))
	}
	// Partition roots carry explicit ordinals: live updates delete and
	// append partitions without relabeling, so the roots are no longer
	// guaranteed to be the contiguous 0.0 .. 0.(F-1). Ordinals ascend in
	// document order, so they run-length encode well — a never-mutated
	// document is a single (0, F) run.
	b = binary.AppendUvarint(b, uint64(len(ix.partRoot)))
	type run struct{ start, n uint32 }
	var runs []run
	for _, p := range ix.partRoot {
		ord := p[len(p)-1]
		if len(runs) > 0 && runs[len(runs)-1].start+runs[len(runs)-1].n == ord {
			runs[len(runs)-1].n++
			continue
		}
		runs = append(runs, run{start: ord, n: 1})
	}
	b = binary.AppendUvarint(b, uint64(len(runs)))
	for _, r := range runs {
		b = binary.AppendUvarint(b, uint64(r.start))
		b = binary.AppendUvarint(b, uint64(r.n))
	}
	return b
}

// decodeDocMeta fills the document-level statistics from their encoded
// form. idMap, when non-nil, translates the store's persisted type IDs
// into the IDs of a shared registry (see LoadInto); nil means the registry
// is the store's own and IDs match positionally.
func decodeDocMeta(ix *Index, b []byte, idMap []*xmltree.Type) error {
	r := bytes.NewReader(b)
	nodeCount, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("index: doc meta: %w", err)
	}
	ix.NodeCount = int(nodeCount)
	nTypes, err := binary.ReadUvarint(r)
	if err != nil {
		return err
	}
	if idMap == nil {
		if int(nTypes) != ix.Types.Len() {
			return fmt.Errorf("index: doc meta lists %d types, registry has %d", nTypes, ix.Types.Len())
		}
	} else if int(nTypes) != len(idMap) {
		return fmt.Errorf("index: doc meta lists %d types, store registry has %d", nTypes, len(idMap))
	}
	remap := func(i int) int {
		if idMap == nil {
			return i
		}
		return idMap[i].ID
	}
	ix.nt = make([]uint32, ix.Types.Len())
	ix.gt = make([]uint32, ix.Types.Len())
	for i := 0; i < int(nTypes); i++ {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return err
		}
		ix.nt[remap(i)] = uint32(v)
	}
	for i := 0; i < int(nTypes); i++ {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return err
		}
		ix.gt[remap(i)] = uint32(v)
	}
	nParts, err := binary.ReadUvarint(r)
	if err != nil {
		return err
	}
	nRuns, err := binary.ReadUvarint(r)
	if err != nil {
		return err
	}
	for i := uint64(0); i < nRuns; i++ {
		start, err := binary.ReadUvarint(r)
		if err != nil {
			return err
		}
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return err
		}
		for j := uint64(0); j < n; j++ {
			ix.partRoot = append(ix.partRoot, dewey.Root().Child(uint32(start+j)))
		}
	}
	if uint64(len(ix.partRoot)) != nParts {
		return fmt.Errorf("index: doc meta runs cover %d partitions, header says %d", len(ix.partRoot), nParts)
	}
	return nil
}

// saveMeta writes the type registry and the doc metadata. Either grows
// with the number of node types, and the doc metadata with a fragmented
// partition set after live updates, so each spills into continuation
// chunks when it outgrows a cell.
func (ix *Index) saveMeta(s storage.Backend) error {
	if err := putChunked(s, metaTypesKey, ix.Types.Marshal()); err != nil {
		return err
	}
	return putChunked(s, metaDocKey, ix.encodeDocMeta())
}

// putChunked writes b under key, spilling what exceeds one cell into
// continuation chunks keyed key+"\x00"+<seq BE32>. Stale continuation
// chunks are cleared first (a value shrinks: the doc metadata when
// partition runs re-coalesce). A value that fits one cell is one Put.
func putChunked(s storage.Backend, key string, b []byte) error {
	lo, hi := extRange(key)
	if _, err := s.DeleteRange(lo, hi); err != nil {
		return err
	}
	budget := s.MaxKV() - 16
	end := min(len(b), budget)
	if err := s.Put([]byte(key), b[:end]); err != nil {
		return err
	}
	for seq, off := uint32(0), end; off < len(b); seq++ {
		end := min(off+budget, len(b))
		if err := s.Put(binary.BigEndian.AppendUint32(lo, seq), b[off:end]); err != nil {
			return err
		}
		off = end
	}
	return nil
}

// extRange returns [lo, hi), the range of key's continuation chunk keys:
// each is lo followed by a big-endian sequence number. lo is capped, so
// appending to it copies.
func extRange(key string) (lo, hi []byte) {
	lo = append([]byte(key), 0)
	hi = append(append([]byte(nil), lo...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	return lo[:len(lo):len(lo)], hi
}

// getChunked reads the value putChunked wrote under key, concatenating
// its continuation chunks.
func getChunked(s storage.Backend, key string) ([]byte, bool, error) {
	b, ok, err := s.Get([]byte(key))
	if err != nil || !ok {
		return nil, ok, err
	}
	lo, hi := extRange(key)
	if err := s.Range(lo, hi, func(k, v []byte) bool {
		b = append(b, v...)
		return true
	}); err != nil {
		return nil, false, err
	}
	return b, true, nil
}

func encodeFreqRow(listLen uint32, stats map[int]typeStat) []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(listLen))
	b = binary.AppendUvarint(b, uint64(len(stats)))
	// Deterministic order: ascending type ID.
	ids := make([]int, 0, len(stats))
	for id := range stats {
		ids = append(ids, id)
	}
	sortInts(ids)
	for _, id := range ids {
		st := stats[id]
		b = binary.AppendUvarint(b, uint64(id))
		b = binary.AppendUvarint(b, uint64(st.df))
		b = binary.AppendUvarint(b, uint64(st.tf))
	}
	return b
}

func decodeFreqRow(b []byte) (uint32, map[int]typeStat, error) {
	r := bytes.NewReader(b)
	listLen, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, err
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, err
	}
	stats := make(map[int]typeStat, n)
	for i := 0; i < int(n); i++ {
		id, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, nil, err
		}
		df, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, nil, err
		}
		tf, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, nil, err
		}
		stats[int(id)] = typeStat{df: uint32(df), tf: uint32(tf)}
	}
	return uint32(listLen), stats, nil
}

// saveChunks writes a posting list as its block-encoded stream — type
// table header plus the core's payload bytes verbatim — split into
// cell-sized chunks.
func saveChunks(s storage.Backend, term string, l *List) error {
	if l == nil || l.core == nil || l.core.n == 0 {
		return nil
	}
	core := l.core
	stream := make([]byte, 0, 16+2*len(core.types)+len(core.enc))
	stream = binary.AppendUvarint(stream, uint64(len(core.types)))
	for _, t := range core.types {
		stream = binary.AppendUvarint(stream, uint64(t.ID))
	}
	stream = append(stream, core.enc...)
	for chunk, off := uint32(0), 0; off < len(stream); chunk++ {
		end := off + chunkBudget
		if end > len(stream) {
			end = len(stream)
		}
		if err := s.Put(listChunkKey(term, chunk), stream[off:end]); err != nil {
			return fmt.Errorf("index: save chunk %d of %q: %w", chunk, term, err)
		}
		off = end
	}
	return nil
}

// loadChunks reads and concatenates every chunk of a term's posting list
// into the resident encoded core. resolve maps the store's persisted type
// IDs to interned types — the registry's own ByID for plain loads, an idMap
// lookup for shared-registry loads.
func loadChunks(s storage.Backend, resolve func(int) (*xmltree.Type, bool), term string) (*List, error) {
	prefix := append([]byte(listPrefix), term...)
	prefix = append(prefix, 0)
	end := append(append([]byte(nil), prefix...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	var stream []byte
	err := s.Range(prefix, end, func(k, v []byte) bool {
		stream = append(stream, v...)
		return true
	})
	if err != nil {
		return nil, err
	}
	if len(stream) == 0 {
		return &List{Term: term}, nil
	}
	r := bytes.NewReader(stream)
	nTypes, err := binary.ReadUvarint(r)
	if err != nil || nTypes == 0 {
		return nil, fmt.Errorf("index: chunks of %q: bad type table header", term)
	}
	types := make([]*xmltree.Type, nTypes)
	for i := range types {
		tid, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("index: chunks of %q: truncated type table", term)
		}
		t, ok := resolve(int(tid))
		if !ok {
			return nil, fmt.Errorf("index: chunks of %q name unknown type %d", term, tid)
		}
		types[i] = t
	}
	core, err := parseCore(stream[len(stream)-r.Len():], types)
	if err != nil {
		return nil, fmt.Errorf("index: chunks of %q: %w", term, err)
	}
	return newListFromCore(term, core), nil
}

// Load opens an index previously written with Save. Statistics load
// eagerly (they are small and every query ranking touches them); posting
// lists load lazily per keyword on first List call.
func Load(s storage.Backend) (*Index, error) { return load(s, nil) }

// LoadInto is Load against a shared type registry: the store's persisted
// type paths are interned into reg (in persisted order, parents first) and
// every statistic and posting is remapped onto the shared IDs. Several
// stores loaded into one registry therefore agree on type *pointer*
// identity — the property the sharded merge relies on — even when their
// persisted registries diverged at the tail under independent live
// updates.
func LoadInto(s storage.Backend, reg *xmltree.Registry) (*Index, error) {
	if reg == nil {
		return nil, fmt.Errorf("index: LoadInto needs a registry")
	}
	return load(s, reg)
}

func load(s storage.Backend, reg *xmltree.Registry) (*Index, error) {
	raw, ok, err := getChunked(s, metaTypesKey)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("index: store has no type registry (not an index?)")
	}
	local, err := xmltree.UnmarshalRegistry(raw)
	if err != nil {
		return nil, err
	}
	types := local
	var idMap []*xmltree.Type // persisted local type ID -> shared type
	if reg != nil {
		// Persisted order is interning order, parents before children, so
		// every parent resolves before its children re-intern.
		locals := local.Types()
		idMap = make([]*xmltree.Type, len(locals))
		for i, t := range locals {
			var parent *xmltree.Type
			if t.Parent != nil {
				parent = idMap[t.Parent.ID]
			}
			idMap[i] = reg.Intern(parent, t.Tag)
		}
		types = reg
	}
	ix := &Index{
		Types: types,
		Root:  dewey.Root(),
		terms: make(map[string]*kwEntry),
		stat:  &opStat{},
	}
	docRaw, ok, err := getChunked(s, metaDocKey)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("index: store has no document metadata")
	}
	if err := decodeDocMeta(ix, docRaw, idMap); err != nil {
		return nil, err
	}
	// Frequent table: one row per term.
	fEnd := []byte{freqPrefix[0], 1} // '\x01' > '\x00' separator
	var rowErr error
	err = s.Range([]byte(freqPrefix), fEnd, func(k, v []byte) bool {
		term := string(k[len(freqPrefix):])
		listLen, stats, err := decodeFreqRow(v)
		if err != nil {
			rowErr = fmt.Errorf("index: freq row %q: %w", term, err)
			return false
		}
		if idMap != nil {
			mapped := make(map[int]typeStat, len(stats))
			for id, st := range stats {
				if id >= len(idMap) {
					rowErr = fmt.Errorf("index: freq row %q names unknown type %d", term, id)
					return false
				}
				mapped[idMap[id].ID] = st
			}
			stats = mapped
		}
		ix.terms[term] = &kwEntry{listLen: listLen, stats: stats}
		return true
	})
	if err != nil {
		return nil, err
	}
	if rowErr != nil {
		return nil, rowErr
	}
	resolve := local.ByID
	if idMap != nil {
		resolve = func(id int) (*xmltree.Type, bool) {
			if id < 0 || id >= len(idMap) {
				return nil, false
			}
			return idMap[id], true
		}
	}
	// The first list chunk tells the posting format apart (see the layout
	// comment): refuse a pre-block-codec store here, at open, rather than
	// with a parse error on some later query.
	retired := false
	if err := s.Range([]byte(listPrefix), []byte{listPrefix[0], 1}, func(k, v []byte) bool {
		retired = len(v) > 0 && v[0] == 0
		return false
	}); err != nil {
		return nil, err
	}
	if retired {
		return nil, fmt.Errorf("index: posting lists predate format %s: %w", FormatVersion, storage.ErrUnsupportedFormat)
	}
	ix.loader = func(term string) (*List, error) { return loadChunks(s, resolve, term) }
	return ix, nil
}

func sortInts(a []int) { sort.Ints(a) }
