package kvstore

import "bytes"

// Cursor iterates keys in ascending byte order. A cursor is a snapshot of
// navigation state, not of data: it is invalidated by any Put or Delete on
// the store and must not be used concurrently with writes. Multiple
// cursors may run concurrently with each other and with Get.
type Cursor struct {
	s     *Store
	stack []cursorFrame
	err   error
	valid bool
	// held marks a cursor whose owner holds s.mu for its whole lifetime
	// (Range), so its steps must not take the lock again: a second RLock
	// behind a waiting writer would deadlock.
	held bool
}

type cursorFrame struct {
	n   *node
	idx int // child index in branches, key index in leaves
}

// Cursor returns a new unpositioned cursor; call First or Seek next.
func (s *Store) Cursor() *Cursor { return &Cursor{s: s} }

// Err returns the first IO/decode error the cursor hit, if any.
func (c *Cursor) Err() error { return c.err }

// Valid reports whether the cursor is positioned on a key.
func (c *Cursor) Valid() bool { return c.valid && c.err == nil }

// Key returns the current key; valid only while Valid() is true. The
// returned slice is shared with the cursor; copy it to retain it.
func (c *Cursor) Key() []byte {
	f := c.top()
	return f.n.keys[f.idx]
}

// Value returns the current value under the same contract as Key.
func (c *Cursor) Value() []byte {
	f := c.top()
	return f.n.vals[f.idx]
}

func (c *Cursor) top() *cursorFrame { return &c.stack[len(c.stack)-1] }

func (c *Cursor) fail(err error) {
	c.err = err
	c.valid = false
}

// First positions the cursor at the smallest key.
func (c *Cursor) First() {
	c.stack = c.stack[:0]
	c.valid = false
	id := c.root()
	if id == 0 {
		return
	}
	for {
		n, err := c.load(id)
		if err != nil {
			c.fail(err)
			return
		}
		c.stack = append(c.stack, cursorFrame{n: n})
		if n.isLeaf {
			if len(n.keys) == 0 {
				return // empty root leaf
			}
			c.valid = true
			return
		}
		id = n.children[0]
	}
}

// Seek positions the cursor at the smallest key >= key.
func (c *Cursor) Seek(key []byte) {
	c.stack = c.stack[:0]
	c.valid = false
	id := c.root()
	if id == 0 {
		return
	}
	for {
		n, err := c.load(id)
		if err != nil {
			c.fail(err)
			return
		}
		if n.isLeaf {
			i, _ := n.search(key)
			c.stack = append(c.stack, cursorFrame{n: n, idx: i})
			if i >= len(n.keys) {
				// All keys in this leaf are smaller; step to the
				// next leaf.
				c.top().idx = len(n.keys) - 1
				if len(n.keys) == 0 {
					return
				}
				c.valid = true
				c.Next()
				return
			}
			c.valid = true
			return
		}
		i := n.route(key)
		c.stack = append(c.stack, cursorFrame{n: n, idx: i})
		id = n.children[i]
	}
}

// Next advances to the following key in order.
func (c *Cursor) Next() {
	if !c.Valid() {
		return
	}
	f := c.top()
	if f.idx+1 < len(f.n.keys) {
		f.idx++
		return
	}
	// Walk up until a branch frame has a next child, then descend to the
	// leftmost leaf of that subtree.
	c.stack = c.stack[:len(c.stack)-1]
	for len(c.stack) > 0 {
		f := c.top()
		if f.idx+1 <= len(f.n.keys) && f.idx+1 < len(f.n.children) {
			f.idx++
			id := f.n.children[f.idx]
			for {
				n, err := c.load(id)
				if err != nil {
					c.fail(err)
					return
				}
				c.stack = append(c.stack, cursorFrame{n: n})
				if n.isLeaf {
					if len(n.keys) == 0 {
						// Empty leaves cannot exist below a
						// branch, but fail soft if one does.
						c.valid = false
						return
					}
					return
				}
				id = n.children[0]
			}
		}
		c.stack = c.stack[:len(c.stack)-1]
	}
	c.valid = false
}

func (c *Cursor) root() uint32 {
	if !c.held {
		c.s.mu.RLock()
		defer c.s.mu.RUnlock()
	}
	return c.s.rootID
}

func (c *Cursor) load(id uint32) (*node, error) {
	if !c.held {
		c.s.mu.RLock()
		defer c.s.mu.RUnlock()
	}
	if c.s.closed {
		return nil, ErrClosed
	}
	return c.s.loadLocked(id)
}

// Range calls fn for every key in [lo, hi) in order; a nil hi means "to the
// end". Iteration stops early when fn returns false. It returns the first
// cursor error.
//
// Unlike a bare Cursor, Range may run concurrently with writes: it holds
// the read lock for the whole scan. A cursor that released it between steps
// would keep *node pointers that Put and Delete mutate in place while a
// batch is open, and hand fn torn cells. fn must therefore not call back
// into the store; every caller only copies the bytes out.
func (s *Store) Range(lo, hi []byte, fn func(k, v []byte) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := &Cursor{s: s, held: true}
	if lo == nil {
		c.First()
	} else {
		c.Seek(lo)
	}
	for c.Valid() {
		if hi != nil && bytes.Compare(c.Key(), hi) >= 0 {
			break
		}
		if !fn(c.Key(), c.Value()) {
			break
		}
		c.Next()
	}
	return c.Err()
}
