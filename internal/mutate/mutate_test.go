package mutate

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
	"xrefine/internal/xmltree"
)

func sampleBatch() *Batch {
	return &Batch{Ops: []Op{
		{Kind: OpInsert, Parent: dewey.ID{0}, XML: `<paper><title>new entry</title></paper>`},
		{Kind: OpDelete, Target: dewey.ID{0, 1}},
		{Kind: OpInsert, Parent: dewey.ID{0, 0}, XML: `<note>addendum</note>`},
	}}
}

func TestBatchFileRoundtrip(t *testing.T) {
	b := sampleBatch()
	var buf bytes.Buffer
	buf.WriteString("# generated updates\n\n")
	if err := WriteBatchFile(&buf, b); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadBatchFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, dec) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", dec, b)
	}
}

func TestOpJSONValidation(t *testing.T) {
	for _, bad := range []string{
		`{"op":"insert","xml":"<a/>"}`,             // no parent
		`{"op":"insert","parent":"0.1"}`,           // no xml
		`{"op":"delete"}`,                          // no target
		`{"op":"upsert","target":"0.1"}`,           // unknown kind
		`{"op":"insert","parent":"x.y","xml":"a"}`, // bad label
	} {
		var op Op
		if err := op.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

const stageXML = `<root>
  <paper><title>xml keyword search</title><author>smith</author></paper>
  <paper><title>query refinement</title><author>jones</author></paper>
</root>`

func TestStageMatchesRebuild(t *testing.T) {
	doc, err := xmltree.ParseString(stageXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	b := &Batch{Ops: []Op{
		{Kind: OpInsert, Parent: dewey.ID{0}, XML: `<paper><title>live updates</title><author>smith</author></paper>`},
		{Kind: OpDelete, Target: dewey.ID{0, 1}},
		{Kind: OpInsert, Parent: dewey.ID{0, 2, 0}, XML: `<kw>incremental</kw>`},
	}}
	res, err := Stage(doc, ix, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.InsertOps != 2 || res.DeleteOps != 1 {
		t.Fatalf("op counts %d/%d", res.InsertOps, res.DeleteOps)
	}
	if res.Inserted == 0 || res.Deleted == 0 {
		t.Fatalf("node counts %d/%d", res.Inserted, res.Deleted)
	}
	// Originals untouched.
	if doc.NodeCount == res.Doc.NodeCount {
		t.Fatal("staging mutated node counts are identical — did Stage clone?")
	}
	if _, ok := doc.NodeByID(dewey.ID{0, 2}); ok {
		t.Fatal("staging grafted into the source document")
	}
	// The staged index must equal a from-scratch rebuild of the staged doc.
	want := index.Build(res.Doc)
	for _, term := range want.Vocabulary() {
		wl, _ := want.List(term)
		gl, err := res.Ix.List(term)
		if err != nil {
			t.Fatal(err)
		}
		if gl.Len() != wl.Len() {
			t.Fatalf("term %q: %d postings, rebuild has %d", term, gl.Len(), wl.Len())
		}
		for i := 0; i < wl.Len(); i++ {
			if !dewey.Equal(gl.At(i).ID, wl.At(i).ID) {
				t.Fatalf("term %q posting %d: %s vs %s", term, i, gl.At(i).ID, wl.At(i).ID)
			}
		}
	}
	if len(res.Ix.Vocabulary()) != len(want.Vocabulary()) {
		t.Fatalf("vocab sizes differ: %d vs %d", len(res.Ix.Vocabulary()), len(want.Vocabulary()))
	}
}

func TestStageRejectsBadOps(t *testing.T) {
	doc, err := xmltree.ParseString(stageXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	cases := []Batch{
		{Ops: []Op{{Kind: OpInsert, Parent: dewey.ID{0, 9}, XML: `<a>x</a>`}}},
		{Ops: []Op{{Kind: OpDelete, Target: dewey.ID{0, 9}}}},
		{Ops: []Op{{Kind: OpDelete, Target: dewey.ID{0}}}},
		{Ops: []Op{{Kind: OpInsert, Parent: dewey.ID{0}, XML: `<unclosed>`}}},
		{Ops: nil},
		// A good op followed by a bad one must reject the whole batch.
		{Ops: []Op{
			{Kind: OpInsert, Parent: dewey.ID{0}, XML: `<ok>fine</ok>`},
			{Kind: OpDelete, Target: dewey.ID{0, 7, 7}},
		}},
	}
	for i, b := range cases {
		if _, err := Stage(doc, ix, &b); err == nil {
			t.Errorf("case %d: staged without error", i)
		}
	}
	// And the source must still match its own rebuild afterwards.
	want := index.Build(doc)
	if len(ix.Vocabulary()) != len(want.Vocabulary()) {
		t.Fatal("failed staging mutated the source index vocabulary")
	}
	if fmt.Sprint(ix.PartitionRoots()) != fmt.Sprint(want.PartitionRoots()) {
		t.Fatal("failed staging mutated the source partition roots")
	}
}
