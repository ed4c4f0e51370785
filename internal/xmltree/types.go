// Package xmltree models an XML document as a rooted, labeled, ordered
// tree, the data model of Section III of the paper. Every element (and,
// optionally, attribute) becomes a Node carrying a Dewey label and a node
// type; a node type is the prefix path of tag names from the document root
// (Definition 3.1), interned in a Registry so that type identity is pointer
// identity and every statistics table can key on small integer type IDs.
package xmltree

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Type is an interned node type: a prefix path of tag names from the root.
// Two nodes have the same *Type exactly when their root-to-node tag paths
// are equal.
type Type struct {
	// ID is a dense registry-assigned identifier, stable for the life of
	// the registry and usable as a map or slice key.
	ID int
	// Tag is the final tag name on the path (the node's own tag).
	Tag string
	// Parent is the type of the node's parent; nil for the root type.
	Parent *Type
	// Depth is the number of edges from the root; the root type has 0.
	Depth int

	path      string
	plainPath bool // path needs no JSON escaping
}

// Path returns the full "/"-joined prefix path, e.g. "bib/author/name".
func (t *Type) Path() string { return t.path }

// AppendPathJSON appends Path as encoding/json writes it; a path of plain
// bytes, known since Intern, is copied with no escape scan.
func (t *Type) AppendPathJSON(dst []byte) []byte {
	if t.plainPath {
		return append(append(append(dst, '"'), t.path...), '"')
	}
	return AppendJSONString(dst, t.path)
}

// String implements fmt.Stringer.
func (t *Type) String() string { return t.path }

// AncestorAt returns the ancestor-or-self type at the given depth.
// AncestorAt(0) is the root type; AncestorAt(t.Depth) is t itself.
func (t *Type) AncestorAt(depth int) (*Type, error) {
	if depth < 0 || depth > t.Depth {
		return nil, fmt.Errorf("xmltree: depth %d out of range [0,%d] for type %s", depth, t.Depth, t.path)
	}
	for t.Depth > depth {
		t = t.Parent
	}
	return t, nil
}

// HasPrefix reports whether p's path is a prefix of t's path, i.e. whether
// a t-typed node is a self-or-descendant of a p-typed node. This is the
// ancestry test behind the meaningful-SLCA predicate (Definition 3.3).
func (t *Type) HasPrefix(p *Type) bool {
	if p == nil || p.Depth > t.Depth {
		return false
	}
	a, _ := t.AncestorAt(p.Depth)
	return a == p
}

// Registry interns node types. Lookups are lock-free reads of an immutable
// snapshot published through an atomic pointer, so queries running against
// one epoch of an index never block (or race) while a live-update batch
// interns new types for the next epoch. Intern itself copies the snapshot
// only when it actually creates a type, which is rare after warm-up.
// *Type values are shared across snapshots: pointer identity of a type is
// stable for the life of the registry.
type Registry struct {
	mu   sync.Mutex // serializes snapshot replacement by writers
	snap atomic.Pointer[regSnap]
}

// regSnap is one immutable registry state.
type regSnap struct {
	byPath map[string]*Type
	types  []*Type
}

// NewRegistry returns an empty type registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.snap.Store(&regSnap{byPath: make(map[string]*Type)})
	return r
}

// Intern returns the type for the child tag under parent, creating it on
// first use. A nil parent interns the root type.
func (r *Registry) Intern(parent *Type, tag string) *Type {
	var path string
	depth := 0
	if parent == nil {
		path = tag
	} else {
		path = parent.path + "/" + tag
		depth = parent.Depth + 1
	}
	if t, ok := r.snap.Load().byPath[path]; ok {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snap.Load()
	if t, ok := old.byPath[path]; ok { // lost the creation race
		return t
	}
	t := &Type{ID: len(old.types), Tag: tag, Parent: parent, Depth: depth, path: path, plainPath: !strings.ContainsFunc(path, notPlain)}
	next := &regSnap{
		byPath: make(map[string]*Type, len(old.byPath)+1),
		types:  append(append(make([]*Type, 0, len(old.types)+1), old.types...), t),
	}
	for p, ot := range old.byPath {
		next.byPath[p] = ot
	}
	next.byPath[path] = t
	r.snap.Store(next)
	return t
}

// ByPath looks a type up by its full "/"-joined path.
func (r *Registry) ByPath(path string) (*Type, bool) {
	t, ok := r.snap.Load().byPath[path]
	return t, ok
}

// ByID returns the type with the given registry ID.
func (r *Registry) ByID(id int) (*Type, bool) {
	types := r.snap.Load().types
	if id < 0 || id >= len(types) {
		return nil, false
	}
	return types[id], true
}

// Len returns the number of interned types.
func (r *Registry) Len() int { return len(r.snap.Load().types) }

// Types returns all interned types in ID order. The slice is an immutable
// snapshot; types interned later do not appear in it.
func (r *Registry) Types() []*Type { return r.snap.Load().types }

// ByTag returns every type whose final tag equals tag, in ID order. The
// paper abbreviates node types by their tag name when unambiguous; this is
// the lookup that resolves such an abbreviation.
func (r *Registry) ByTag(tag string) []*Type {
	var out []*Type
	for _, t := range r.snap.Load().types {
		if t.Tag == tag {
			out = append(out, t)
		}
	}
	return out
}

// Marshal serializes the registry as newline-separated paths in ID order,
// which is enough to rebuild it because a parent path always precedes its
// children (parents are interned first).
func (r *Registry) Marshal() []byte {
	var b strings.Builder
	for _, t := range r.snap.Load().types {
		b.WriteString(t.path)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// UnmarshalRegistry rebuilds a registry from Marshal output. Paths must be
// listed parent-before-child, which Marshal guarantees.
func UnmarshalRegistry(data []byte) (*Registry, error) {
	r := NewRegistry()
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if line == "" {
			continue
		}
		i := strings.LastIndexByte(line, '/')
		if i < 0 {
			r.Intern(nil, line)
			continue
		}
		parent, ok := r.ByPath(line[:i])
		if !ok {
			return nil, fmt.Errorf("xmltree: registry data lists %q before its parent", line)
		}
		r.Intern(parent, line[i+1:])
	}
	if r.Len() == 0 {
		return nil, errors.New("xmltree: empty registry data")
	}
	return r, nil
}

// SortTypesByPath returns the registry's types sorted by path, for
// deterministic iteration in reports and tests.
func (r *Registry) SortTypesByPath() []*Type {
	types := r.snap.Load().types
	out := make([]*Type, len(types))
	copy(out, types)
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}
