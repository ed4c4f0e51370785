// Package mutate implements live index maintenance: subtree insert/delete
// batches, their JSON wire and batch-file forms, and staging of a batch
// against the current epoch's document and index (via
// xmltree.Clone/Graft/Detach and index.Mutator). The engine layer commits
// a staged batch to its store as one atomic epoch; this package knows
// nothing about epochs or persistence.
package mutate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"xrefine/internal/dewey"
)

// OpKind discriminates update operations.
type OpKind uint8

const (
	// OpInsert grafts an XML fragment as the last child of a parent node.
	OpInsert OpKind = 1
	// OpDelete detaches the subtree rooted at a target node.
	OpDelete OpKind = 2
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("opkind(%d)", uint8(k))
	}
}

// Op is one update operation. Insert ops carry Parent and XML; delete ops
// carry Target.
type Op struct {
	Kind   OpKind
	Parent dewey.ID // insert: node receiving the fragment as last child
	Target dewey.ID // delete: root of the subtree to remove
	XML    string   // insert: the fragment document
}

// Batch is the unit of atomicity: all ops apply in order inside one epoch
// commit, or none do.
type Batch struct {
	Ops []Op `json:"ops"`
}

// opJSON is the wire form of Op:
//
//	{"op":"insert","parent":"0.1","xml":"<paper>...</paper>"}
//	{"op":"delete","target":"0.2"}
type opJSON struct {
	Op     string `json:"op"`
	Parent string `json:"parent,omitempty"`
	Target string `json:"target,omitempty"`
	XML    string `json:"xml,omitempty"`
}

// MarshalJSON renders the op in its wire form.
func (o Op) MarshalJSON() ([]byte, error) {
	switch o.Kind {
	case OpInsert:
		return json.Marshal(opJSON{Op: "insert", Parent: o.Parent.String(), XML: o.XML})
	case OpDelete:
		return json.Marshal(opJSON{Op: "delete", Target: o.Target.String()})
	default:
		return nil, fmt.Errorf("mutate: cannot marshal op kind %d", o.Kind)
	}
}

// UnmarshalJSON parses the wire form, validating kind-specific fields.
func (o *Op) UnmarshalJSON(b []byte) error {
	var w opJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	switch w.Op {
	case "insert":
		if w.Parent == "" || w.XML == "" {
			return fmt.Errorf("mutate: insert op needs parent and xml")
		}
		// AppendParse pre-sizes from a component count, skipping Parse's
		// per-call strings.Split garbage — this runs once per insert op of
		// every /update body and batch-file line.
		parent, err := dewey.AppendParse(nil, w.Parent)
		if err != nil {
			return fmt.Errorf("mutate: insert parent: %w", err)
		}
		*o = Op{Kind: OpInsert, Parent: parent, XML: w.XML}
	case "delete":
		if w.Target == "" {
			return fmt.Errorf("mutate: delete op needs target")
		}
		target, err := dewey.AppendParse(nil, w.Target)
		if err != nil {
			return fmt.Errorf("mutate: delete target: %w", err)
		}
		*o = Op{Kind: OpDelete, Target: target}
	default:
		return fmt.Errorf("mutate: unknown op %q", w.Op)
	}
	return nil
}

// ReadBatchFile parses a batch file: one op per line in the JSON wire
// form, blank lines and #-comments skipped. This is the format xgen
// -updates emits and xrefine apply consumes.
func ReadBatchFile(r io.Reader) (*Batch, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	b := &Batch{}
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		var op Op
		if err := json.Unmarshal([]byte(s), &op); err != nil {
			return nil, fmt.Errorf("mutate: batch file line %d: %w", line, err)
		}
		b.Ops = append(b.Ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

// WriteBatchFile writes the batch in the one-op-per-line wire form.
func WriteBatchFile(w io.Writer, b *Batch) error {
	for _, op := range b.Ops {
		j, err := json.Marshal(op)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(j, '\n')); err != nil {
			return err
		}
	}
	return nil
}
