package xmltree

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"xrefine/internal/dewey"
	"xrefine/internal/tokenize"
)

// Node is one element (or attribute, when attributes are materialized) of
// the document tree.
type Node struct {
	// Tag is the normalized tag name.
	Tag string
	// Type is the interned prefix-path type of the node.
	Type *Type
	// ID is the node's Dewey label.
	ID dewey.ID
	// Parent is nil for the root.
	Parent *Node
	// Children holds child nodes in document order; the i-th child has
	// Dewey label ID.Child(i).
	Children []*Node
	// Text is the character data directly under the element, not its
	// descendants': each run between element boundaries trimmed, and the
	// non-empty runs joined by one space.
	Text string
}

// Terms returns the normalized keyword terms of the node: its tag name plus
// every term of its direct text value. The tag comes first.
func (n *Node) Terms() []string {
	terms := make([]string, 0, 4)
	if t := tokenize.Tag(n.Tag); t != "" {
		terms = append(terms, t)
	}
	return append(terms, tokenize.Text(n.Text)...)
}

// Subtext concatenates all text in the node's subtree in document order,
// separated by single spaces. Used for snippets.
func (n *Node) Subtext() string {
	var b strings.Builder
	n.appendSubtext(&b)
	return b.String()
}

func (n *Node) appendSubtext(b *strings.Builder) {
	if n.Text != "" {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(n.Text)
	}
	for _, c := range n.Children {
		c.appendSubtext(b)
	}
}

// Snippet renders a short human-readable preview of the subtree: the tag,
// the Dewey label and up to max runes of subtree text.
func (n *Node) Snippet(max int) string { return string(n.AppendSnippet(nil, max)) }

// AppendSnippet appends the bytes of Snippet to dst: `tag:label "text"`,
// where text is the subtree's text in document order, single-space
// separated and Go-quoted, cut after max runes with a trailing "…" (a
// negative max counts as 0). It reads the text only as far as the cut, so
// a result high in the tree costs what its preview shows, not its subtree,
// and it allocates only when dst must grow.
//
// A cut text has each invalid UTF-8 byte replaced by U+FFFD, as a []rune
// round trip would; an uncut text shows such bytes as \x escapes.
func (n *Node) AppendSnippet(dst []byte, max int) []byte { return n.appendSnippet(dst, max, false) }

// AppendSnippetJSON appends Snippet as a JSON string literal, the bytes
// encoding/json (HTML escaping on) writes for it, rendered in the same one
// walk over the text as AppendSnippet.
func (n *Node) AppendSnippetJSON(dst []byte, max int) []byte { return n.appendSnippet(dst, max, true) }

func (n *Node) appendSnippet(dst []byte, max int, inJSON bool) []byte {
	if max < 0 {
		max = 0
	}
	open, end := ` "`, `"`
	if inJSON {
		dst = append(dst, '"')
		dst = AppendJSONEscaped(dst, n.Tag)
		open, end = ` \"`, `\""`
	} else {
		dst = append(dst, n.Tag...)
	}
	dst = append(dst, ':')
	dst = n.ID.AppendText(dst)
	dst = append(dst, open...)
	// The walk renders uncut until it learns the text overflows. A cut and
	// an uncut text differ only in how invalid bytes show, so a cut learnt
	// after one was written as \x renders the text again, in cut mode.
	w := textWalk{dst: dst, left: max, json: inJSON}
	cut := !w.write(n)
	if cut && w.invalid {
		w = textWalk{dst: w.dst[:len(dst)], left: max, json: inJSON, cut: true}
		w.write(n)
	}
	dst = w.dst
	if cut {
		dst = append(dst, "…"...)
	}
	return append(dst, end...)
}

// textWalk writes a subtree's text in document order, a single space
// between non-empty texts, within a budget of runes: Go-quoted, and then
// JSON-escaped for a JSON literal.
type textWalk struct {
	dst     []byte
	left    int  // runes the budget still allows
	sep     bool // a text has been written: the next one follows a space
	cut     bool // the text is cut, so invalid bytes show as U+FFFD
	json    bool // JSON-escape what Go quoting writes
	invalid bool // an invalid byte has been written
}

// write appends the text under n; it reports false, and stops, at the
// first rune the budget does not allow.
func (w *textWalk) write(n *Node) bool {
	if s := n.Text; s != "" {
		if w.sep {
			if w.left == 0 {
				return false
			}
			w.dst = append(w.dst, ' ')
			w.left--
		}
		w.sep = true
		for i := 0; i < len(s); {
			if w.left == 0 {
				return false
			}
			// A run of plain bytes, one rune each, is copied as it is.
			j, end := i, len(s)
			if w.left < end-i {
				end = i + w.left
			}
			for j < end && plainByte(s[j]) {
				j++
			}
			if j == i {
				i += w.quoteRune(s[i:])
				w.left--
				continue
			}
			w.dst = append(w.dst, s[i:j]...)
			w.left -= j - i
			i = j
		}
	}
	for _, c := range n.Children {
		if !w.write(c) {
			return false
		}
	}
	return true
}

// quoteRune appends the first rune of s, Go-quoted, and returns its size.
// An invalid byte shows as a \x escape, or as U+FFFD in a cut text.
func (w *textWalk) quoteRune(s string) int {
	r, size := utf8.DecodeRuneInString(s)
	var buf [12]byte // the longest Go-quoted rune, `"\U0010ffff"`
	q := strconv.AppendQuote(buf[:0], s[:size])
	q = q[1 : len(q)-1]
	if r == utf8.RuneError && size == 1 {
		w.invalid = true
		if w.cut {
			q = append(q[:0], string(utf8.RuneError)...)
		}
	}
	if w.json {
		w.dst = AppendJSONEscaped(w.dst, q)
	} else {
		w.dst = append(w.dst, q...)
	}
	return size
}

// SnippetHighlight is Snippet with query terms wrapped in [brackets], so a
// terminal UI can show why the node matched. Terms are compared after
// normalization, the way the index matched them.
func (n *Node) SnippetHighlight(max int, terms []string) string {
	match := make(map[string]bool, len(terms))
	for _, t := range terms {
		match[t] = true
	}
	words := strings.Fields(n.Subtext())
	var b strings.Builder
	runes := 0
	truncated := false
	for i, w := range words {
		render := w
		if match[tokenize.Normalize(w)] {
			render = "[" + w + "]"
		}
		if i > 0 {
			runes++
		}
		runes += len([]rune(render))
		if runes > max {
			truncated = true
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(render)
	}
	txt := b.String()
	if truncated {
		txt += "…"
	}
	return fmt.Sprintf("%s:%s %q", n.Tag, n.ID, txt)
}

// Document is a parsed XML document.
type Document struct {
	Root *Node
	// Types is the registry of node types observed in the document.
	Types *Registry
	// NodeCount is the total number of nodes including the root.
	NodeCount int
}

// Options configure parsing.
type Options struct {
	// AttributesAsNodes materializes each attribute as a child node whose
	// tag is the attribute name and whose text is the attribute value.
	// This matches how the paper's datasets (DBLP) expose keyworded data
	// like year="2003". Default true.
	AttributesAsNodes bool
	// MaxDepth aborts parsing of pathologically deep documents. Zero
	// means the default of 512.
	MaxDepth int
}

func (o *Options) withDefaults() Options {
	out := Options{AttributesAsNodes: true, MaxDepth: 512}
	if o != nil {
		out = *o
		if out.MaxDepth == 0 {
			out.MaxDepth = 512
		}
	}
	return out
}

// Parse reads an XML document from r and builds the tree. A nil opts uses
// defaults.
func Parse(r io.Reader, opts *Options) (*Document, error) { return ParsePartitions(r, opts, nil) }

// ParsePartitions reads an XML document from r as Parse does, but one
// partition (Definition 6.1: a child of the root) at a time: it hands each
// partition to part once complete — at its end tag, or at once for an
// attribute of the root — and then drops it, so memory holds one
// partition, not the document. The returned document has every type, the
// whole document's NodeCount and a childless root whose Text is complete.
// A nil part keeps every partition under the root: that is Parse.
func ParsePartitions(r io.Reader, opts *Options, part func(*Node)) (*Document, error) {
	rd := &reader{o: opts.withDefaults(), doc: &Document{Types: NewRegistry()}, part: part}
	dec := xml.NewDecoder(r)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			err = rd.start(t)
		case xml.EndElement:
			err = rd.end()
		case xml.CharData:
			if len(rd.stack) > 0 {
				rd.run = append(rd.run, t...)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if rd.doc.Root == nil {
		return nil, errors.New("xmltree: no root element")
	}
	if len(rd.stack) != 0 {
		return nil, errors.New("xmltree: unclosed elements at EOF")
	}
	return rd.doc, nil
}

// reader turns encoding/xml tokens into Nodes, the one place where that
// happens.
//
// A node's Text joins its runs of character data: each run between two
// element boundaries (a start or end tag, its own or a child's) is trimmed
// of surrounding space, and the non-empty runs are joined by one space, so
// in <a>foo<b>x</b>bar</a> a's text is "foo bar". Comments and processing
// instructions are not boundaries. The open elements' runs share one
// buffer, innermost last, and a node's Text is cut from it once, at its
// end tag.
type reader struct {
	o     Options
	doc   *Document
	part  func(*Node) // nil: the root keeps its partitions
	stack []frame     // the open elements, the root first
	run   []byte      // character data since the last element boundary
	text  []byte      // the open elements' joined runs
}

// frame is an open element.
type frame struct {
	n    *Node
	kids uint32 // children so far: the next child's ordinal
	text int    // where the element's runs begin in reader.text
}

// start opens an element and adds its attributes as its first children.
func (rd *reader) start(t xml.StartElement) error {
	rd.flush()
	if len(rd.stack) >= rd.o.MaxDepth {
		return fmt.Errorf("xmltree: document deeper than %d", rd.o.MaxDepth)
	}
	if len(rd.stack) == 0 && rd.doc.Root != nil {
		return errors.New("xmltree: multiple root elements")
	}
	tag := tokenize.Tag(t.Name.Local)
	if tag == "" {
		tag = "x"
	}
	n := rd.add(tag)
	rd.stack = append(rd.stack, frame{n: n, text: len(rd.text)})
	if !rd.o.AttributesAsNodes {
		return nil
	}
	for _, a := range t.Attr {
		atag := tokenize.Tag(a.Name.Local)
		if atag == "" || a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
			continue
		}
		an := rd.add(atag)
		an.Text = strings.TrimSpace(a.Value)
		rd.done(an)
	}
	return nil
}

// end closes the innermost open element and sets its Text.
func (rd *reader) end() error {
	rd.flush()
	if len(rd.stack) == 0 {
		return errors.New("xmltree: unbalanced end element")
	}
	f := rd.stack[len(rd.stack)-1]
	rd.stack = rd.stack[:len(rd.stack)-1]
	if len(rd.text) > f.text {
		f.n.Text = string(rd.text[f.text:])
		rd.text = rd.text[:f.text]
	}
	rd.done(f.n)
	return nil
}

// flush ends a run of character data at an element boundary: trimmed, the
// run joins the innermost open element's runs, one space after the last.
func (rd *reader) flush() {
	t := bytes.TrimSpace(rd.run)
	rd.run = rd.run[:0]
	if len(t) == 0 {
		return
	}
	if len(rd.text) > rd.stack[len(rd.stack)-1].text {
		rd.text = append(rd.text, ' ')
	}
	rd.text = append(rd.text, t...)
}

// add makes a node tagged tag the last child of the innermost open
// element, or the root when none is open.
func (rd *reader) add(tag string) *Node {
	rd.doc.NodeCount++
	if len(rd.stack) == 0 {
		rd.doc.Root = &Node{Tag: tag, Type: rd.doc.Types.Intern(nil, tag), ID: dewey.Root()}
		return rd.doc.Root
	}
	f := &rd.stack[len(rd.stack)-1]
	n := &Node{
		Tag:    tag,
		Type:   rd.doc.Types.Intern(f.n.Type, tag),
		ID:     f.n.ID.Child(f.kids),
		Parent: f.n,
	}
	f.kids++
	f.n.Children = append(f.n.Children, n)
	return n
}

// done takes each node once complete: a partition goes to part, if there
// is one, and leaves the root.
func (rd *reader) done(n *Node) {
	if rd.part == nil || len(n.ID) != 2 {
		return
	}
	rd.part(n)
	root := rd.doc.Root
	clear(root.Children)
	root.Children = root.Children[:0]
}

// ParseString is Parse over an in-memory document.
func ParseString(s string, opts *Options) (*Document, error) {
	return Parse(strings.NewReader(s), opts)
}

// Ord returns the node's child ordinal: the last component of its Dewey
// label. After subtree deletions the ordinals of a node's children may have
// gaps (labels of surviving siblings never shift), so the ordinal is not
// the position in the Children slice.
func (n *Node) Ord() uint32 { return n.ID[len(n.ID)-1] }

// ChildByOrd returns the child carrying the given ordinal: the child at
// position ord until a deletion leaves a gap, else a binary search, since
// children stay sorted by ordinal.
func (n *Node) ChildByOrd(ord uint32) (*Node, bool) {
	if uint64(ord) < uint64(len(n.Children)) && n.Children[ord].Ord() == ord {
		return n.Children[ord], true
	}
	i := sort.Search(len(n.Children), func(i int) bool { return n.Children[i].Ord() >= ord })
	if i < len(n.Children) && n.Children[i].Ord() == ord {
		return n.Children[i], true
	}
	return nil, false
}

// NodeByID resolves a Dewey label to its node. It fails when the label does
// not name a node of this document.
func (d *Document) NodeByID(id dewey.ID) (*Node, bool) {
	if len(id) == 0 || id[0] != 0 || d.Root == nil {
		return nil, false
	}
	n := d.Root
	for _, c := range id[1:] {
		child, ok := n.ChildByOrd(c)
		if !ok {
			return nil, false
		}
		n = child
	}
	return n, true
}

// Walk visits every node in document order (pre-order). The walk descends
// into a node's children only when fn returns true for it.
func (d *Document) Walk(fn func(*Node) bool) {
	if d.Root == nil {
		return
	}
	var rec func(*Node)
	rec = func(n *Node) {
		if !fn(n) {
			return
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(d.Root)
}

// Partitions returns the roots of the document partitions (Definition 6.1):
// the children of the document root, in document order.
func (d *Document) Partitions() []*Node {
	if d.Root == nil {
		return nil
	}
	return d.Root.Children
}
