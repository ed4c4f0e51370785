package xrefine_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xrefine"
	"xrefine/internal/lexicon"
	"xrefine/internal/rank"
)

const demo = `
<bib>
  <author>
    <name>John Ben</name>
    <publications>
      <inproceedings><title>online database systems</title><year>2003</year></inproceedings>
      <inproceedings><title>efficient keyword search</title><year>2005</year></inproceedings>
    </publications>
  </author>
</bib>`

func TestFacadeEndToEnd(t *testing.T) {
	eng, err := xrefine.NewFromXML(strings.NewReader(demo), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.QueryTermsCtx(context.Background(), xrefine.Tokenize("online databse"), xrefine.StrategyPartition, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.NeedRefine || len(resp.Queries) == 0 {
		t.Fatalf("response = %+v", resp)
	}
	if got := strings.Join(resp.Queries[0].Keywords, " "); got != "database online" {
		t.Errorf("best refinement = %v", got)
	}
}

func TestFacadePersistence(t *testing.T) {
	eng, err := xrefine.NewFromXML(strings.NewReader(demo), nil)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ix.kv"
	store, err := xrefine.OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveIndex(store); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := xrefine.OpenStore(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	eng2, err := xrefine.OpenIndex(ro, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng2.QueryTermsCtx(context.Background(), xrefine.Tokenize("efficient keyword"), xrefine.StrategyPartition, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.NeedRefine || len(resp.Queries[0].Results) == 0 {
		t.Fatalf("reloaded engine broken: %+v", resp)
	}
}

func TestFacadeSnippet(t *testing.T) {
	doc, err := xrefine.ParseXML(strings.NewReader(demo))
	if err != nil {
		t.Fatal(err)
	}
	eng := xrefine.NewFromDocument(doc, &xrefine.Config{
		Lexicon: lexicon.Builtin(),
		Rank:    rank.Default(),
	})
	resp, err := eng.QueryTermsCtx(context.Background(), xrefine.Tokenize("online database"), xrefine.StrategyPartition, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := resp.Queries[0].Results[0]
	s := xrefine.Snippet(doc, m, 60)
	if !strings.Contains(s, "online database") {
		t.Errorf("snippet = %q", s)
	}
	// A negative rune budget counts as 0, the text cut at once, instead
	// of panicking on a slice bound.
	neg := xrefine.Snippet(doc, m, -1)
	if want := xrefine.Snippet(doc, m, 0); neg != want || !strings.HasSuffix(neg, ` "…"`) {
		t.Errorf("Snippet(-1) = %q, want Snippet(0) = %q, an empty cut text", neg, want)
	}
}

// TestRootAPIHasCallers keeps the root package sized to its users: every
// exported identifier in xrefine.go is used by an Example function or a
// cmd/ program, or is named in the signature of a used function.
func TestRootAPIHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name string, src any) *ast.File {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	used := map[string]bool{}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tests {
		f := parse(name, nil)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Example") {
				addRootRefs(used, f, fd)
			}
		}
	}
	err = filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			f := parse(path, nil)
			addRootRefs(used, f, f)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	if missing := uncalledRootAPI(parse("xrefine.go", nil), used); len(missing) > 0 {
		t.Errorf("exported root identifiers with no Example or cmd/ caller: %v", missing)
	}

	// The audit must notice an export nobody calls.
	src, err := os.ReadFile("xrefine.go")
	if err != nil {
		t.Fatal(err)
	}
	grown := parse("xrefine.go", string(src)+"\nfunc Unused() {}\n")
	if missing := uncalledRootAPI(grown, used); !slices.Contains(missing, "Unused") {
		t.Errorf("audit missed an uncalled export: got %v", missing)
	}
}

// addRootRefs records the root identifiers node references through f's
// import of the root package.
func addRootRefs(used map[string]bool, f *ast.File, node ast.Node) {
	local := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"xrefine"` {
			local = "xrefine"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
				used[sel.Sel.Name] = true
			}
		}
		return true
	})
}

// uncalledRootAPI lists api's exported identifiers that are neither used
// nor named in the signature of a used function.
func uncalledRootAPI(api *ast.File, used map[string]bool) []string {
	kept := maps.Clone(used)
	var names []string
	for _, d := range api.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			names = append(names, d.Name.Name)
			if used[d.Name.Name] {
				ast.Inspect(d.Type, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr: // another package's name
						return false
					case *ast.Ident:
						kept[n.Name] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, spec.Name.Name)
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	var missing []string
	for _, n := range names {
		if ast.IsExported(n) && !kept[n] {
			missing = append(missing, n)
		}
	}
	return missing
}
