// Package dewey implements Dewey order labels for XML nodes.
//
// A Dewey label identifies a node in a rooted ordered tree by the sequence
// of child ordinals on the path from the root to the node. The document
// root is labeled "0"; its i-th child is "0.i", and so on. Dewey labels
// give constant-time ancestor tests and linear-time lowest common ancestor
// (LCA) computation, and their lexicographic component order coincides with
// XML document order — the two properties every algorithm in this
// repository relies on.
package dewey

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ID is a Dewey label: the component path from the document root to a node.
// The zero-length ID is invalid everywhere except as a sentinel; the
// document root is ID{0}.
type ID []uint32

// Root returns the label of the document root.
func Root() ID { return ID{0} }

// Parse parses a dotted decimal label such as "0.1.2".
func Parse(s string) (ID, error) { return AppendParse(nil, s) }

// AppendParse parses a dotted decimal label into dst (reusing its backing
// array when capacity allows) and returns the extended slice — the
// allocation-free form of Parse for hot loops that parse many labels into
// one scratch buffer. A component-count pre-scan sizes the single grow,
// and components parse in place without strings.Split's per-call slice of
// substrings. On error dst is returned unchanged.
func AppendParse(dst ID, s string) (ID, error) {
	if s == "" {
		return dst, errors.New("dewey: empty label")
	}
	orig := s
	n := 1 + strings.Count(s, ".")
	base := len(dst)
	if cap(dst)-base < n {
		grown := make(ID, base, base+n)
		copy(grown, dst)
		dst = grown
	}
	out := dst
	for i := 0; i < n; i++ {
		part := s
		if j := strings.IndexByte(s, '.'); j >= 0 {
			part, s = s[:j], s[j+1:]
		} else {
			s = ""
		}
		v, err := strconv.ParseUint(part, 10, 32)
		if err != nil {
			return dst[:base], fmt.Errorf("dewey: bad component %q in %q: %w", part, orig, err)
		}
		out = append(out, uint32(v))
	}
	return out, nil
}

// MustParse is Parse that panics on error, for tests and literals.
func MustParse(s string) ID {
	id, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return id
}

// String renders the label in dotted decimal form.
func (d ID) String() string {
	if len(d) == 0 {
		return ""
	}
	var b strings.Builder
	for i, c := range d {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(uint64(c), 10))
	}
	return b.String()
}

// AppendText appends the dotted decimal form of d (what String returns)
// onto buf and returns the extended slice — the allocation-free variant
// response encoders use on the serving hot path.
func (d ID) AppendText(buf []byte) []byte {
	for i, c := range d {
		if i > 0 {
			buf = append(buf, '.')
		}
		buf = strconv.AppendUint(buf, uint64(c), 10)
	}
	return buf
}

// Depth returns the number of edges from the root; the root has depth 0.
func (d ID) Depth() int { return len(d) - 1 }

// Clone returns an independent copy of d.
func (d ID) Clone() ID {
	c := make(ID, len(d))
	copy(c, d)
	return c
}

// Child returns the label of the ord-th child of d.
func (d ID) Child(ord uint32) ID {
	c := make(ID, len(d)+1)
	copy(c, d)
	c[len(d)] = ord
	return c
}

// Parent returns the label of d's parent and true, or nil and false when d
// is the root (or empty).
func (d ID) Parent() (ID, bool) {
	if len(d) <= 1 {
		return nil, false
	}
	return d[:len(d)-1].Clone(), true
}

// Compare orders labels by document order: component-wise numeric order
// with a prefix (ancestor) sorting before its extensions. It returns -1, 0
// or +1.
func Compare(a, b ID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Equal reports whether a and b are the same label.
func Equal(a, b ID) bool { return Compare(a, b) == 0 }

// IsAncestorOrSelf reports whether a is an ancestor of b or equal to b,
// i.e. whether a is a component prefix of b.
func IsAncestorOrSelf(a, b ID) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// IsAncestor reports whether a is a strict ancestor of b.
func IsAncestor(a, b ID) bool {
	return len(a) < len(b) && IsAncestorOrSelf(a, b)
}

// LCA returns the lowest common ancestor of a and b: their longest common
// component prefix. Both labels must stem from the same document (share the
// root component); LCA of any two valid labels is at worst the root.
func LCA(a, b ID) ID {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return a[:i].Clone()
}

// LCALen returns only the length of the common prefix of a and b, avoiding
// the allocation of LCA when the caller just needs the cut point.
func LCALen(a, b ID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Partition returns the document-partition label of d per Definition 6.1 of
// the paper: the subtree rooted at the i-th child of the document root. It
// returns false when d is the root itself (the root belongs to no
// partition).
func (d ID) Partition() (ID, bool) {
	if len(d) < 2 {
		return nil, false
	}
	return d[:2].Clone(), true
}

// Next returns the immediate successor of d in document order among labels
// of the same length, i.e. d with its last component incremented. It is the
// exclusive upper bound of d's subtree in document order: every descendant
// of d sorts before d.Next(), every following node sorts at or after it.
func (d ID) Next() ID {
	c := d.Clone()
	c[len(c)-1]++
	return c
}

// Append encodes d onto buf in a binary form whose bytewise lexicographic
// order equals document order, suitable as a key component in an ordered
// key-value store. Each component is emitted big-endian with a continuation
// scheme: components 0..0x7F take one byte, larger components take five
// bytes prefixed by 0xFF. A 0x00 terminator makes prefixes sort first.
func (d ID) Append(buf []byte) []byte {
	for _, c := range d {
		if c < 0x7F {
			// +1 keeps every component byte nonzero so the 0x00
			// terminator sorts ancestors before descendants.
			buf = append(buf, byte(c)+1)
		} else {
			var tmp [4]byte
			binary.BigEndian.PutUint32(tmp[:], c)
			buf = append(buf, 0xFF, tmp[0], tmp[1], tmp[2], tmp[3])
		}
	}
	return append(buf, 0x00)
}

// Bytes encodes d per Append into a fresh buffer.
func (d ID) Bytes() []byte { return d.Append(make([]byte, 0, len(d)+1)) }

// FromBytes decodes a label previously encoded with Append/Bytes. It
// returns the decoded ID and the number of bytes consumed.
func FromBytes(b []byte) (ID, int, error) {
	var id ID
	i := 0
	for i < len(b) {
		switch {
		case b[i] == 0x00:
			return id, i + 1, nil
		case b[i] == 0xFF:
			if i+5 > len(b) {
				return nil, 0, errors.New("dewey: truncated wide component")
			}
			id = append(id, binary.BigEndian.Uint32(b[i+1:i+5]))
			i += 5
		default:
			id = append(id, uint32(b[i])-1)
			i++
		}
	}
	return nil, 0, errors.New("dewey: missing terminator")
}
