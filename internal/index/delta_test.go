package index

import (
	"fmt"
	"strings"
	"testing"

	"xrefine/internal/dewey"
	"xrefine/internal/kvstore"
	"xrefine/internal/xmltree"
)

const deltaBaseXML = `<root>
  <paper><title>xml keyword search</title><author>smith</author><year>2003</year></paper>
  <paper><title>query refinement engine</title><author>jones</author></paper>
  <paper><title>unique sentinel</title><author>solo</author></paper>
</root>`

// assertIndexEquivalent checks every observable statistic and list of got
// against want (the from-scratch rebuild).
func assertIndexEquivalent(t *testing.T, got, want *Index) {
	t.Helper()
	if got.NodeCount != want.NodeCount {
		t.Errorf("NodeCount = %d, want %d", got.NodeCount, want.NodeCount)
	}
	gv, wv := got.Vocabulary(), want.Vocabulary()
	if fmt.Sprint(gv) != fmt.Sprint(wv) {
		t.Fatalf("vocabulary = %v, want %v", gv, wv)
	}
	// got may carry its own registry (e.g. a Load roundtrip), so types are
	// matched by prefix path, never by pointer.
	gotType := func(w *xmltree.Type) *xmltree.Type {
		g, ok := got.Types.ByPath(w.Path())
		if !ok {
			t.Fatalf("type %s missing from got registry", w.Path())
		}
		return g
	}
	for _, typ := range want.Types.Types() {
		if g, w := got.NT(gotType(typ)), want.NT(typ); g != w {
			t.Errorf("NT(%s) = %d, want %d", typ.Path(), g, w)
		}
		if g, w := got.GT(gotType(typ)), want.GT(typ); g != w {
			t.Errorf("GT(%s) = %d, want %d", typ.Path(), g, w)
		}
	}
	for _, term := range wv {
		gl, err := got.List(term)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := want.List(term)
		if err != nil {
			t.Fatal(err)
		}
		if gl.Len() != wl.Len() {
			t.Fatalf("list %q len = %d, want %d", term, gl.Len(), wl.Len())
		}
		gp, wp := gl.Postings(), wl.Postings()
		for i := range wp {
			if !dewey.Equal(gp[i].ID, wp[i].ID) || gp[i].Type.Path() != wp[i].Type.Path() {
				t.Fatalf("list %q posting %d = %s (%s), want %s (%s)",
					term, i, gp[i].ID, gp[i].Type.Path(), wp[i].ID, wp[i].Type.Path())
			}
		}
		if g, w := got.ListLen(term), want.ListLen(term); g != w {
			t.Errorf("ListLen(%q) = %d, want %d", term, g, w)
		}
		for _, typ := range want.Types.Types() {
			if g, w := got.DF(term, gotType(typ)), want.DF(term, typ); g != w {
				t.Errorf("DF(%q, %s) = %d, want %d", term, typ.Path(), g, w)
			}
			if g, w := got.TF(term, gotType(typ)), want.TF(term, typ); g != w {
				t.Errorf("TF(%q, %s) = %d, want %d", term, typ.Path(), g, w)
			}
		}
	}
	if fmt.Sprint(got.PartitionRoots()) != fmt.Sprint(want.PartitionRoots()) {
		t.Errorf("PartitionRoots = %v, want %v", got.PartitionRoots(), want.PartitionRoots())
	}
}

// mutateOnce clones doc, applies fn to the clone through a Mutator, and
// returns the new document, index and mutator.
func mutateOnce(t *testing.T, doc *xmltree.Document, ix *Index, fn func(d *xmltree.Document, m *Mutator)) (*xmltree.Document, *Index, *Mutator) {
	t.Helper()
	nd := doc.Clone()
	m := NewMutator(ix)
	fn(nd, m)
	return nd, m.Index(), m
}

func graft(t *testing.T, d *xmltree.Document, parentID dewey.ID, frag string) *xmltree.Node {
	t.Helper()
	p, ok := d.NodeByID(parentID)
	if !ok {
		t.Fatalf("no node %s", parentID)
	}
	fd, err := xmltree.ParseString(frag, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := d.Graft(p, fd)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestMutatorInsertMatchesRebuild(t *testing.T) {
	doc, err := xmltree.ParseString(deltaBaseXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc)
	nd, nix, _ := mutateOnce(t, doc, ix, func(d *xmltree.Document, m *Mutator) {
		// New partition with repeated terms (tf counts occurrences, the
		// list dedups per node) and a brand-new tag type.
		sub := graft(t, d, dewey.Root(), `<paper><title>xml xml refinement</title><venue>sigmod</venue></paper>`)
		if err := m.InsertSubtree(sub); err != nil {
			t.Fatal(err)
		}
		// Deep insert below an existing paper.
		sub2 := graft(t, d, dewey.ID{0, 0}, `<note>keyword sentinel</note>`)
		if err := m.InsertSubtree(sub2); err != nil {
			t.Fatal(err)
		}
	})
	assertIndexEquivalent(t, nix, Build(nd))
	// The source index must be untouched by the derivation.
	assertIndexEquivalent(t, ix, Build(doc))
}

func TestMutatorDeleteMatchesRebuild(t *testing.T) {
	doc, err := xmltree.ParseString(deltaBaseXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc)
	nd, nix, m := mutateOnce(t, doc, ix, func(d *xmltree.Document, m *Mutator) {
		// Deleting partition 0.2 removes the only occurrences of
		// "unique", "sentinel" and "solo" — whole terms must vanish.
		n, ok := d.NodeByID(dewey.ID{0, 2})
		if !ok {
			t.Fatal("no node 0.2")
		}
		if err := m.DeleteSubtree(n); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Detach(n); err != nil {
			t.Fatal(err)
		}
	})
	assertIndexEquivalent(t, nix, Build(nd))
	for _, term := range []string{"unique", "sentinel", "solo"} {
		if nix.HasTerm(term) {
			t.Errorf("term %q survives deletion of its only subtree", term)
		}
	}
	removed := m.Removed()
	if len(removed) == 0 {
		t.Error("Removed() is empty after deleting exclusive terms")
	}
	assertIndexEquivalent(t, ix, Build(doc))
}

func TestMutatorMixedBatchMatchesRebuild(t *testing.T) {
	doc, err := xmltree.ParseString(deltaBaseXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc)
	nd, nix, _ := mutateOnce(t, doc, ix, func(d *xmltree.Document, m *Mutator) {
		// Delete a partition, insert a replacement (ordinal continues past
		// the gap), then delete a deep node from a surviving partition.
		n, _ := d.NodeByID(dewey.ID{0, 1})
		if err := m.DeleteSubtree(n); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Detach(n); err != nil {
			t.Fatal(err)
		}
		sub := graft(t, d, dewey.Root(), `<paper><title>fresh query terms</title><author>smith</author></paper>`)
		if err := m.InsertSubtree(sub); err != nil {
			t.Fatal(err)
		}
		year, ok := d.NodeByID(dewey.ID{0, 0, 2})
		if !ok {
			t.Fatal("no node 0.0.2")
		}
		if year.Tag != "year" {
			t.Fatalf("node 0.0.2 is %q, want year", year.Tag)
		}
		if err := m.DeleteSubtree(year); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Detach(year); err != nil {
			t.Fatal(err)
		}
	})
	rebuilt := Build(nd)
	assertIndexEquivalent(t, nix, rebuilt)
	// Labels must show the gap: partitions are 0.0 and 0.3, not 0.0/0.1.
	roots := nix.PartitionRoots()
	if len(roots) != 3 || !dewey.Equal(roots[2], dewey.ID{0, 3}) {
		t.Fatalf("partition roots = %v, want [0.0 0.2 0.3]", roots)
	}
}

func TestMutatorSaveDeltaRoundtrip(t *testing.T) {
	doc, err := xmltree.ParseString(deltaBaseXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc)
	s := kvstore.NewMem()
	defer s.Close()
	if err := ix.Save(s); err != nil {
		t.Fatal(err)
	}
	base, err := Load(s)
	if err != nil {
		t.Fatal(err)
	}
	nd, nix, m := mutateOnce(t, doc, base, func(d *xmltree.Document, m *Mutator) {
		n, _ := d.NodeByID(dewey.ID{0, 2})
		if err := m.DeleteSubtree(n); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Detach(n); err != nil {
			t.Fatal(err)
		}
		sub := graft(t, d, dewey.Root(), `<paper><title>incremental index</title></paper>`)
		if err := m.InsertSubtree(sub); err != nil {
			t.Fatal(err)
		}
	})
	if err := m.SaveDelta(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Load(s)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEquivalent(t, reloaded, Build(nd))
	assertIndexEquivalent(t, nix, Build(nd))
	// Removed terms must leave no residue in the store.
	for _, term := range m.Removed() {
		if reloaded.HasTerm(term) {
			t.Errorf("removed term %q still loadable", term)
		}
	}
}

func TestMutatorLargeChurnMatchesRebuild(t *testing.T) {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "<e><v>shared token%d</v></e>", i)
	}
	b.WriteString("</root>")
	doc, err := xmltree.ParseString(b.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc)
	nd := doc.Clone()
	cur := ix
	// Several sequential epochs: each deletes one partition and inserts
	// one, exercising ordinal gaps and repeated term churn.
	for round := 0; round < 5; round++ {
		m := NewMutator(cur)
		victim := nd.Partitions()[round*3]
		if err := m.DeleteSubtree(victim); err != nil {
			t.Fatal(err)
		}
		if _, err := nd.Detach(victim); err != nil {
			t.Fatal(err)
		}
		sub := graft(t, nd, dewey.Root(), fmt.Sprintf(`<e><v>shared fresh%d</v></e>`, round))
		if err := m.InsertSubtree(sub); err != nil {
			t.Fatal(err)
		}
		cur = m.Index()
	}
	assertIndexEquivalent(t, cur, Build(nd))
}
