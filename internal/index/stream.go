package index

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"xrefine/internal/dewey"
	"xrefine/internal/tokenize"
	"xrefine/internal/xmltree"
)

// BuildStream constructs the index directly from an XML byte stream,
// without materializing the document tree. Memory stays proportional to
// the index (postings + statistics), not to the document: the paper's
// DBLP corpus is 420 MB of XML whose tree would dwarf its inverted lists.
// The produced index is equivalent to Build(xmltree.Parse(r)) — a property
// the tests assert — but engines built this way have no Document, so
// snippets and narrowing are unavailable.
//
// Options mirror xmltree.Options (attribute materialization, depth guard).
func BuildStream(r io.Reader, opts *xmltree.Options) (*Index, error) {
	var o xmltree.Options
	if opts != nil {
		o = *opts
	} else {
		o = xmltree.Options{AttributesAsNodes: true}
	}
	maxDepth := o.MaxDepth
	if maxDepth == 0 {
		maxDepth = 512
	}

	reg := xmltree.NewRegistry()
	ix := &Index{
		Types: reg,
		Root:  dewey.Root(),
		terms: make(map[string]*kwEntry),
		stat:  &opStat{},
	}
	var nt []uint32

	type frame struct {
		typ      *xmltree.Type
		id       dewey.ID
		children uint32
		text     strings.Builder
	}
	var stack []*frame
	states := make(map[string]*streamState)
	rootSeen := false
	partitions := 0

	// indexTerms registers term occurrences of a node. A node's terms
	// arrive in two waves — the tag at StartElement, text terms at
	// EndElement, i.e. *after* the node's descendants — so postings are
	// collected raw here and sorted, deduplicated and df-replayed at
	// finalize. Term frequency is order-independent and counted here.
	indexTerms := func(f *frame, terms []string) {
		if len(terms) == 0 {
			return
		}
		ancestors := make([]*xmltree.Type, 0, f.typ.Depth+1)
		for t := f.typ; t != nil; t = t.Parent {
			ancestors = append(ancestors, t)
		}
		for _, term := range terms {
			st := states[term]
			if st == nil {
				st = &streamState{kwEntry: &kwEntry{stats: make(map[int]typeStat)}}
				states[term] = st
			}
			for _, t := range ancestors {
				row := st.stats[t.ID]
				row.tf++
				st.stats[t.ID] = row
			}
			st.postings = append(st.postings, Posting{ID: f.id, Type: f.typ})
		}
	}

	openNode := func(tag string, parent *frame) (*frame, error) {
		var f *frame
		if parent == nil {
			if rootSeen {
				return nil, fmt.Errorf("index: multiple root elements")
			}
			rootSeen = true
			f = &frame{typ: reg.Intern(nil, tag), id: dewey.Root()}
		} else {
			f = &frame{
				typ: reg.Intern(parent.typ, tag),
				id:  parent.id.Child(parent.children),
			}
			parent.children++
			if len(parent.id) == 1 {
				partitions++
			}
		}
		for int(f.typ.ID) >= len(nt) {
			nt = append(nt, 0)
		}
		nt[f.typ.ID]++
		ix.NodeCount++
		return f, nil
	}

	dec := xml.NewDecoder(r)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("index: stream parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) >= maxDepth {
				return nil, fmt.Errorf("index: document deeper than %d", maxDepth)
			}
			tag := tokenize.Tag(t.Name.Local)
			if tag == "" {
				tag = "x"
			}
			var parent *frame
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			f, err := openNode(tag, parent)
			if err != nil {
				return nil, err
			}
			indexTerms(f, []string{tag})
			stack = append(stack, f)
			if o.AttributesAsNodes {
				for _, a := range t.Attr {
					atag := tokenize.Tag(a.Name.Local)
					if atag == "" || a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
						continue
					}
					af, err := openNode(atag, f)
					if err != nil {
						return nil, err
					}
					terms := append([]string{atag}, tokenize.Text(a.Value)...)
					indexTerms(af, terms)
				}
			}
		case xml.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].text.Write(t)
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("index: unbalanced end element")
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			indexTerms(f, tokenize.Text(f.text.String()))
		}
	}
	if !rootSeen {
		return nil, fmt.Errorf("index: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("index: unclosed elements at EOF")
	}

	for term, st := range states {
		// Restore document order, drop per-node duplicates (a term can
		// occur in both a node's tag and its text), then replay the
		// df computation the tree builder does incrementally.
		sort.Slice(st.postings, func(i, j int) bool {
			return dewey.Compare(st.postings[i].ID, st.postings[j].ID) < 0
		})
		uniq := st.postings[:0]
		for i, p := range st.postings {
			if i == 0 || !dewey.Equal(st.postings[i-1].ID, p.ID) {
				uniq = append(uniq, p)
			}
		}
		var last dewey.ID
		for _, p := range uniq {
			shared := 0
			if last != nil {
				shared = dewey.LCALen(last, p.ID)
			}
			t := p.Type
			for t != nil && t.Depth >= shared {
				row := st.stats[t.ID]
				row.df++
				st.stats[t.ID] = row
				t = t.Parent
			}
			last = p.ID
		}
		st.kwEntry.list.Store(NewList(term, uniq))
		st.kwEntry.listLen = uint32(len(uniq))
		ix.terms[term] = st.kwEntry
	}
	ix.nt = make([]uint32, reg.Len())
	copy(ix.nt, nt)
	ix.gt = make([]uint32, reg.Len())
	for _, e := range ix.terms {
		for tid := range e.stats {
			ix.gt[tid]++
		}
	}
	for i := 0; i < partitions; i++ {
		ix.partRoot = append(ix.partRoot, dewey.Root().Child(uint32(i)))
	}
	return ix, nil
}

type streamState struct {
	*kwEntry
	postings []Posting
}
