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
// separates components so terms cannot collide with structure). Every value
// is stored through storage.PutChunked, so any of them may continue in
// cells under its key plus "\x00"+<seq BE32> when it outgrows one cell:
//
//	M\x00types   node-type registry
//	M\x00doc     document-level stats (N_T, G_T, partitions)
//	F\x00<term>  frequent-table row: list length + per-type df/tf
//	L\x00<term>  posting-list stream (see below)
//
// A term's list value is one byte stream: [uvarint typeCount][typeCount ×
// uvarint global type ID] followed by the list's block-encoded payload
// exactly as it lives in RAM (block.go) — the encoded form IS the
// persisted form, so loading a list is a concatenation plus a skip-table
// walk, never a re-encode, and disk shrinks with memory. Cell boundaries
// are arbitrary byte splits; blocks need not align with cells. Stores
// written before the chunker kept each list in 768-byte continuation cells
// only, with no cell under L\x00<term>; the chunked reader joins those
// unchanged.
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
		if err := saveTerm(s, term, l, ix.terms[term].stats); err != nil {
			return err
		}
	}
	return s.Commit()
}

// saveTerm writes one term's frequent-table row and posting-list stream,
// replacing whatever the store held for the term.
func saveTerm(s storage.Backend, term string, l *List, stats map[int]typeStat) error {
	if err := storage.PutChunked(s, freqKey(term), encodeFreqRow(uint32(l.Len()), stats)); err != nil {
		return fmt.Errorf("index: save freq %q: %w", term, err)
	}
	if err := storage.PutChunked(s, listKey(term), encodeStream(l)); err != nil {
		return fmt.Errorf("index: save list %q: %w", term, err)
	}
	return nil
}

// deleteTerm removes one term's row and list from the store.
func deleteTerm(s storage.Backend, term string) error {
	if err := storage.DeleteChunked(s, freqKey(term)); err != nil {
		return err
	}
	return storage.DeleteChunked(s, listKey(term))
}

func freqKey(term string) []byte { return append([]byte(freqPrefix), term...) }

func listKey(term string) []byte { return append([]byte(listPrefix), term...) }

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
// partition set after live updates.
func (ix *Index) saveMeta(s storage.Backend) error {
	if err := storage.PutChunked(s, []byte(metaTypesKey), ix.Types.Marshal()); err != nil {
		return err
	}
	return storage.PutChunked(s, []byte(metaDocKey), ix.encodeDocMeta())
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

// encodeStream returns a posting list's persisted stream: the type table
// header plus the core's payload bytes verbatim. An empty list is an empty
// stream.
func encodeStream(l *List) []byte {
	if l == nil || l.core == nil || l.core.n == 0 {
		return nil
	}
	core := l.core
	stream := make([]byte, 0, 16+2*len(core.types)+len(core.enc))
	stream = binary.AppendUvarint(stream, uint64(len(core.types)))
	for _, t := range core.types {
		stream = binary.AppendUvarint(stream, uint64(t.ID))
	}
	return append(stream, core.enc...)
}

// parseStream turns a term's persisted stream into the resident encoded
// core. resolve maps the store's persisted type IDs to interned types —
// the registry's own ByID for plain loads, an idMap lookup for
// shared-registry loads.
func parseStream(stream []byte, resolve func(int) (*xmltree.Type, bool), term string) (*List, error) {
	if len(stream) == 0 {
		return &List{Term: term}, nil
	}
	r := bytes.NewReader(stream)
	nTypes, err := binary.ReadUvarint(r)
	if err != nil || nTypes == 0 {
		return nil, fmt.Errorf("index: list of %q: bad type table header", term)
	}
	types := make([]*xmltree.Type, nTypes)
	for i := range types {
		tid, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("index: list of %q: truncated type table", term)
		}
		t, ok := resolve(int(tid))
		if !ok {
			return nil, fmt.Errorf("index: list of %q names unknown type %d", term, tid)
		}
		types[i] = t
	}
	core, err := parseCore(stream[len(stream)-r.Len():], types)
	if err != nil {
		return nil, fmt.Errorf("index: list of %q: %w", term, err)
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
	raw, ok, err := storage.GetChunked(s, []byte(metaTypesKey))
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
	docRaw, ok, err := storage.GetChunked(s, []byte(metaDocKey))
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
	err = storage.RangeChunked(s, []byte(freqPrefix), fEnd, func(k, v []byte) bool {
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
	// The first list cell tells the posting format apart (see the layout
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
	ix.loader = func(term string) (*List, error) {
		stream, _, err := storage.GetChunked(s, listKey(term))
		if err != nil {
			return nil, err
		}
		return parseStream(stream, resolve, term)
	}
	return ix, nil
}

func sortInts(a []int) { sort.Ints(a) }
