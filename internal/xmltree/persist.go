package xmltree

import (
	"encoding/binary"
	"fmt"
	"strings"

	"xrefine/internal/storage"
)

// Document persistence: the tree serializes into the same kvstore an index
// lives in, so an engine reopened from disk can still render snippets and
// mine narrowing candidates — the two features that need the source
// document rather than the inverted lists.
//
// Layout: one pre-order byte stream (v2, per node: varint child ordinal,
// varint tag length, tag, varint child count, varint text length, text),
// stored through storage.PutChunked under one key:
//
//	D\x00v  version marker
//	D\x00c  the serialized tree, continuing in cells under D\x00c\x00<seq BE32>
//
// Stores written before the chunker hold the stream in continuation cells
// only, with no cell under D\x00c; the chunked reader joins those
// unchanged. Reconstruction is a single recursive decode. The explicit child
// ordinal is what lets a mutated tree round-trip: after a subtree deletion
// the surviving siblings keep their original ordinals, so positions in the
// child list no longer determine Dewey labels. A stream of any other
// version — v1 had no marker and no ordinals — is refused with
// storage.ErrUnsupportedFormat.
const (
	docStreamKey    = "D\x00c"
	docVersionKey   = "D\x00v"
	docVersionValue = 2
)

// SaveDocument writes the document into the store, replacing any document
// stored there (without committing; the caller batches it with the index
// save).
func SaveDocument(d *Document, s storage.Backend) error {
	if d == nil || d.Root == nil {
		return fmt.Errorf("xmltree: nil document")
	}
	var buf []byte
	var encode func(n *Node)
	encode = func(n *Node) {
		buf = binary.AppendUvarint(buf, uint64(n.Ord()))
		buf = binary.AppendUvarint(buf, uint64(len(n.Tag)))
		buf = append(buf, n.Tag...)
		buf = binary.AppendUvarint(buf, uint64(len(n.Children)))
		buf = binary.AppendUvarint(buf, uint64(len(n.Text)))
		buf = append(buf, n.Text...)
		for _, c := range n.Children {
			encode(c)
		}
	}
	encode(d.Root)

	if err := s.Put([]byte(docVersionKey), []byte{docVersionValue}); err != nil {
		return err
	}
	return storage.PutChunked(s, []byte(docStreamKey), buf)
}

// LoadDocument reconstructs a document previously written with
// SaveDocument; it returns (nil, false, nil) when the store holds no
// document (an index-only store).
func LoadDocument(s storage.Backend) (*Document, bool, error) {
	return LoadDocumentInto(s, nil)
}

// LoadDocumentInto is LoadDocument with a caller-supplied type registry
// (nil creates a fresh one). An engine that loads both an index and its
// source document from one store must intern both into the same registry:
// type identity is by pointer, and a document-side type that merely
// *equals* an index-side type would make every judgment that compares the
// two silently false — in particular for nodes grafted by live updates.
func LoadDocumentInto(s storage.Backend, reg *Registry) (*Document, bool, error) {
	buf, _, err := storage.GetChunked(s, []byte(docStreamKey))
	if err != nil {
		return nil, false, err
	}
	if len(buf) == 0 {
		return nil, false, nil
	}
	ver, _, err := s.Get([]byte(docVersionKey))
	if err != nil {
		return nil, false, err
	}
	if len(ver) != 1 || ver[0] != docVersionValue {
		return nil, false, fmt.Errorf("xmltree: doc stream version %v, want [%d]: %w", ver, docVersionValue, storage.ErrUnsupportedFormat)
	}
	if reg == nil {
		reg = NewRegistry()
	}
	doc := &Document{Types: reg}
	// Tags and texts slice one copy of the stream: a subtree's texts lie
	// together, in document order, where a snippet reads them.
	stream := string(buf)
	r := strings.NewReader(stream)
	pos := func() int { return len(stream) - r.Len() }
	slice := func(n uint64) string {
		s := stream[pos():][:n]
		r.Reset(stream[pos()+int(n):])
		return s
	}
	var decode func(parent *Node) (*Node, error)
	decode = func(parent *Node) (*Node, error) {
		ord, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("xmltree: doc stream at %d: %w", pos(), err)
		}
		tagLen, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("xmltree: doc stream at %d: %w", pos(), err)
		}
		if uint64(r.Len()) < tagLen {
			return nil, fmt.Errorf("xmltree: doc stream truncated tag at %d", pos())
		}
		tag := slice(tagLen)
		childCount, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		textLen, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if uint64(r.Len()) < textLen {
			return nil, fmt.Errorf("xmltree: doc stream truncated text at %d", pos())
		}
		n := &Node{Tag: tag, Text: slice(textLen), Parent: parent}
		if parent == nil {
			n.Type = reg.Intern(nil, n.Tag)
			n.ID = []uint32{0}
		} else {
			n.Type = reg.Intern(parent.Type, n.Tag)
			n.ID = parent.ID.Child(uint32(ord))
		}
		doc.NodeCount++
		if childCount > uint64(r.Len()) {
			return nil, fmt.Errorf("xmltree: implausible child count %d at %d", childCount, pos())
		}
		for i := uint64(0); i < childCount; i++ {
			c, err := decode(n)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, c)
		}
		return n, nil
	}
	root, err := decode(nil)
	if err != nil {
		return nil, false, err
	}
	if r.Len() != 0 {
		return nil, false, fmt.Errorf("xmltree: %d trailing bytes in doc stream", r.Len())
	}
	doc.Root = root
	return doc, true, nil
}
