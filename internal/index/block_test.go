package index

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"xrefine/internal/dewey"
	"xrefine/internal/xmltree"
)

// testTypes interns a small type forest for generated lists: a chain and
// a sibling branch, so decoded postings exercise several distinct
// ordinals per list.
func testTypes() []*xmltree.Type {
	reg := xmltree.NewRegistry()
	root := reg.Intern(nil, "dblp")
	a := reg.Intern(root, "article")
	return []*xmltree.Type{
		root,
		a,
		reg.Intern(a, "title"),
		reg.Intern(a, "author"),
		reg.Intern(root, "inproceedings"),
	}
}

// genPostings produces n document-ordered postings by walking a virtual
// tree: each step descends to a child, advances to a following sibling,
// or pops toward the root and advances. Every move lands strictly after
// the previous node in document order, so the result is valid list input
// by construction. maxDepth and fanout shape the list — deep/narrow
// stresses long shared prefixes, wide/shallow stresses big deltas.
func genPostings(rng *rand.Rand, types []*xmltree.Type, n, maxDepth, fanout int) []Posting {
	cur := dewey.ID{0}
	out := make([]Posting, 0, n)
	for len(out) < n {
		op := rng.Intn(3)
		if len(cur) <= 1 && op != 0 {
			op = 0 // never advance past the document root
		}
		switch op {
		case 0: // descend
			if len(cur) >= maxDepth {
				cur = cur.Clone()
				cur[len(cur)-1] += uint32(1 + rng.Intn(fanout))
			} else {
				cur = append(cur.Clone(), uint32(rng.Intn(fanout)))
			}
		case 1: // following sibling
			cur = cur.Clone()
			cur[len(cur)-1] += uint32(1 + rng.Intn(fanout))
		case 2: // pop toward the root, then advance
			cur = cur[:2+rng.Intn(len(cur)-1)].Clone()
			cur[len(cur)-1] += uint32(1 + rng.Intn(fanout))
		}
		out = append(out, Posting{ID: cur.Clone(), Type: types[rng.Intn(len(types))]})
	}
	return out
}

// verifyList checks every read path of l against the reference postings:
// random access, cursor scan, materialization, and SeekGE against a
// brute-force search over the reference.
func verifyList(t *testing.T, l *List, want []Posting) {
	t.Helper()
	if l.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(want))
	}
	got := l.Postings()
	for i := range want {
		if !dewey.Equal(got[i].ID, want[i].ID) || got[i].Type != want[i].Type {
			t.Fatalf("Postings()[%d] = %v/%v, want %v/%v", i, got[i].ID, got[i].Type, want[i].ID, want[i].Type)
		}
	}
	// Windows: Slice over a spread of ranges, and a cursor's AppendUntil
	// bounded by the ID that ends the same range.
	for i := 0; i < len(want); i += 1 + len(want)/16 {
		j := i + (len(want)-i)/3
		equalPostings(t, "Slice", l.Slice(i, j), want[i:j])
		var end dewey.ID
		if j < len(want) {
			end = want[j].ID
		}
		c := l.NewCursor()
		c.Seek(i)
		got, _ := c.AppendUntil(nil, nil, end)
		if c.Pos() != j {
			t.Fatalf("AppendUntil from %d stopped at %d, want %d", i, c.Pos(), j)
		}
		c.Close()
		equalPostings(t, "AppendUntil", got, want[i:j])
		if f := l.BlockFirst(i); !dewey.Equal(f, want[i/blockMaxPostings*blockMaxPostings].ID) {
			t.Fatalf("BlockFirst(%d) = %v, want the first ID of block %d", i, f, i/blockMaxPostings)
		}
	}
	c := l.NewCursor()
	defer c.Close()
	for i := 0; c.Valid(); c.Next() {
		p := c.Posting()
		if !dewey.Equal(p.ID, want[i].ID) || p.Type != want[i].Type {
			t.Fatalf("cursor at %d = %v/%v, want %v/%v", i, p.ID, p.Type, want[i].ID, want[i].Type)
		}
		i++
	}
	// SeekGE against brute force, probing around every distinct
	// ID plus synthetic neighbors.
	refGE := func(d dewey.ID) int {
		return sort.Search(len(want), func(i int) bool { return dewey.Compare(want[i].ID, d) >= 0 })
	}
	probe := func(d dewey.ID) {
		if g, w := l.SeekGE(d), refGE(d); g != w {
			t.Fatalf("SeekGE(%v) = %d, want %d", d, g, w)
		}
	}
	for i := 0; i < len(want); i += 1 + len(want)/64 {
		id := want[i].ID
		probe(id)
		probe(id.Next())
		probe(append(id.Clone(), 0))
		if parent, ok := id.Parent(); ok {
			probe(parent)
		}
	}
	probe(dewey.ID{0})
	probe(dewey.ID{1 << 30})
}

// equalPostings fails unless got holds exactly want's IDs and types, each
// ID capacity-capped so an append to it cannot write into its neighbour.
func equalPostings(t *testing.T, what string, got, want []Posting) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d postings, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !dewey.Equal(got[i].ID, want[i].ID) || got[i].Type != want[i].Type || cap(got[i].ID) != len(got[i].ID) {
			t.Fatalf("%s[%d] = %v/%v (cap %d), want %v/%v", what, i, got[i].ID, got[i].Type, cap(got[i].ID), want[i].ID, want[i].Type)
		}
	}
}

// TestBlockCodecRoundTripProperty is the encode→decode identity property
// over randomized document-ordered lists of several shapes, each checked
// through every read path and re-parsed from its encoded bytes as the
// persistence layer would.
func TestBlockCodecRoundTripProperty(t *testing.T) {
	types := testTypes()
	shapes := []struct {
		name             string
		n, depth, fanout int
	}{
		{"deep-narrow", 700, 14, 2},
		{"wide-shallow", 700, 4, 1 << 16},
		{"dense-siblings", 900, 6, 3},
		{"single-block", 100, 8, 4},
		{"tiny", 1, 3, 2},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				want := genPostings(rng, types, sh.n, sh.depth, sh.fanout)
				l := NewList("prop", want)
				verifyList(t, l, want)
				// Persistence-shaped round trip: re-parse the encoded
				// payload exactly as loadChunks does.
				core, err := parseCore(append([]byte(nil), l.core.enc...), l.core.types)
				if err != nil {
					t.Fatalf("parseCore: %v", err)
				}
				verifyList(t, newListFromCore("prop", core), want)
			}
		})
	}
}

// postingsFromBytes derives a document-ordered list from fuzz input: each
// byte is one tree move (two low bits) with an ordinal argument (six high
// bits). The fuzzer explores list shapes, never raw codec bytes — decode
// is only ever handed encoder output, and the load path's parseCore
// validation is exercised by the round trip below.
func postingsFromBytes(data []byte, types []*xmltree.Type) []Posting {
	cur := dewey.ID{0}
	out := make([]Posting, 0, len(data))
	for _, b := range data {
		op, arg := int(b&3), uint32(b>>2)
		if len(cur) <= 1 && op != 0 {
			op = 0
		}
		switch op {
		case 0:
			if len(cur) >= 12 {
				cur = cur.Clone()
				cur[len(cur)-1] += arg + 1
			} else {
				cur = append(cur.Clone(), arg)
			}
		case 1:
			cur = cur.Clone()
			cur[len(cur)-1] += arg + 1
		case 2:
			cur = cur[:2+int(arg)%(len(cur)-1)].Clone()
			cur[len(cur)-1]++
		case 3:
			cur = cur.Clone()
			cur[len(cur)-1] += uint32(1) << (arg % 30)
		}
		out = append(out, Posting{ID: cur.Clone(), Type: types[int(b)%len(types)]})
	}
	return out
}

// FuzzBlockCodec fuzzes the encode→decode identity: the input drives a
// generated document-ordered list, which must survive encoding, every
// read path, and a persistence-shaped re-parse byte-identically. The seed
// corpus under testdata/fuzz covers block-boundary counts and wide
// deltas; `go test -fuzz FuzzBlockCodec ./internal/index` explores from
// there.
func FuzzBlockCodec(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0x00, 0x05, 0x41, 0xFF, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		types := testTypes()
		want := postingsFromBytes(data, types)
		l := NewList("fuzz", want)
		verifyList(t, l, want)
		core, err := parseCore(append([]byte(nil), l.core.enc...), l.core.types)
		if err != nil {
			t.Fatalf("parseCore rejected encoder output: %v", err)
		}
		verifyList(t, newListFromCore("fuzz", core), want)
	})
}

// TestCursorScratchRaceStress drives many goroutines over one shared
// list, each churning pooled cursors — sweeps, backward seeks, early
// closes — while checking every posting against an owned reference. Under
// -race this proves a cursor never reads a scratch buffer another
// goroutine recycled: any use of a block buffer after its cursor's Close
// would be a write/read race on the pooled arrays.
func TestCursorScratchRaceStress(t *testing.T) {
	types := testTypes()
	want := genPostings(rand.New(rand.NewSource(7)), types, 1500, 10, 4)
	l := NewList("race", want)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for rep := 0; rep < 15; rep++ {
				c := l.NewCursor()
				// A few random jumps, then a verifying sweep from wherever
				// we landed; retained IDs are cloned before the cursor can
				// decode over them.
				var retained []dewey.ID
				var retainedAt []int
				for j := 0; j < 4; j++ {
					i := rng.Intn(l.Len())
					c.Seek(i)
					p := c.Posting()
					retained = append(retained, p.ID.Clone())
					retainedAt = append(retainedAt, i)
				}
				start := rng.Intn(l.Len())
				c.Seek(start)
				for i := start; c.Valid() && i < start+400; i++ {
					p := c.Posting()
					if !dewey.Equal(p.ID, want[i].ID) || p.Type != want[i].Type {
						t.Errorf("cursor read at %d = %v/%v, want %v/%v", i, p.ID, p.Type, want[i].ID, want[i].Type)
						break
					}
					c.Next()
				}
				c.Close()
				// Clones must outlive the recycled scratch untouched.
				for j, id := range retained {
					if !dewey.Equal(id, want[retainedAt[j]].ID) {
						t.Errorf("retained clone at %d = %v, want %v", retainedAt[j], id, want[retainedAt[j]].ID)
					}
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
}
