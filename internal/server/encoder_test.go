package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/dewey"
	"xrefine/internal/obs"
	"xrefine/internal/refine"
	"xrefine/internal/rules"
	"xrefine/internal/searchfor"
	"xrefine/internal/tokenize"
	"xrefine/internal/xmltree"
)

// refBody renders resp the reference way: the SearchBody projection
// through encoding/json with the server's encoder settings. This is the
// encoder's ground truth.
func refBody(t *testing.T, eng Backend, resp *core.Response, explain *obs.SpanData) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeBody(&buf, SearchBody(eng, resp, explain)); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return buf.Bytes()
}

func checkBody(t *testing.T, name string, eng Backend, resp *core.Response, explain *obs.SpanData) {
	t.Helper()
	got := AppendSearchBody(nil, resp, eng, explain)
	want := refBody(t, eng, resp, explain)
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoder diverges from encoding/json\n got: %q\nwant: %q", name, got, want)
	}
}

// TestEncoderMatchesJSON pins the zero-copy encoder to encoding/json on
// synthetic responses chosen to hit every branch: nil vs empty slices,
// omitempty fields, degraded markers, steps of both kinds, floats in
// both of encoding/json's formats, and strings that need every escape
// class.
func TestEncoderMatchesJSON(t *testing.T) {
	reg := xmltree.NewRegistry()
	root := reg.Intern(nil, "bib")
	paper := reg.Intern(root, "paper")
	title := reg.Intern(paper, "title")

	nastyStrings := []string{
		"plain",
		`quotes " and \ backslash`,
		"tabs\tnewlines\nreturns\r",
		"ctrl \x01\x1f bytes",
		"html <b>&amp;</b> bits",
		"unicode: héllo wörld 漢字",
		"line seps   and  ",
		"invalid utf8: \xff\xfe tail",
		"",
	}

	cases := []struct {
		name string
		resp core.Response
	}{
		{"zero", core.Response{}},
		{"nil-queries", core.Response{Terms: []string{"a"}, NeedRefine: true}},
		{"empty-queries", core.Response{Terms: []string{}, Queries: []core.RankedQuery{}}},
		{"search-for", core.Response{
			Terms:     []string{"db"},
			SearchFor: []searchfor.Candidate{{Type: paper, Confidence: 0.5}, {Type: title}},
		}},
		{"degraded", core.Response{
			Terms:          []string{"x"},
			Degraded:       true,
			DegradedReason: "posting-budget",
			Queries:        []core.RankedQuery{},
		}},
		{"nasty-strings", core.Response{
			Terms:          nastyStrings,
			DegradedReason: nastyStrings[4],
			Degraded:       true,
			Queries: []core.RankedQuery{{
				Keywords: nastyStrings,
				Steps: []refine.Step{
					{Delete: nastyStrings[1]},
					{Rule: &rules.Rule{Op: rules.OpSubstitute,
						LHS: []string{nastyStrings[2]}, RHS: []string{nastyStrings[5], "x"}, Score: 0.25}},
				},
			}},
		}},
		{"floats", core.Response{
			Queries: []core.RankedQuery{
				{DSim: 0, Score: 0},
				{DSim: 0.30000000000000004, Score: math.Pi},
				{DSim: 1e-7, Score: -1e-7},             // 'e' format with exponent cleanup
				{DSim: 1.5e21, Score: -2.25e21},        // 'e' format, positive exponent
				{DSim: math.Copysign(0, -1), Score: 1}, // negative zero
				{DSim: 1e20, Score: 9.999999e20},       // 'f' right at the boundary
				{DSim: math.SmallestNonzeroFloat64, Score: math.MaxFloat64},
			},
		}},
		{"steps-and-results", core.Response{
			Terms:      []string{"online", "databse"},
			NeedRefine: true,
			Queries: []core.RankedQuery{
				{
					Keywords:   []string{"online", "databse"},
					IsOriginal: true,
					Results:    []refine.Match{},
				},
				{
					Keywords: []string{"database", "online"},
					DSim:     1,
					Score:    0.75,
					Steps: []refine.Step{
						{Rule: &rules.Rule{Op: rules.OpSubstitute, LHS: []string{"databse"}, RHS: []string{"database"}, Score: 1}},
						{Rule: &rules.Rule{Op: rules.OpMerge, LHS: []string{"on", "line"}, RHS: []string{"online"}, Score: 1}},
						{Rule: &rules.Rule{Op: rules.OpSplit, LHS: []string{"keywordsearch"}, RHS: []string{"keyword", "search"}, Score: 1.5}},
						{Delete: "stray"},
						{}, // the "?" fallback
					},
					Results: []refine.Match{
						{ID: dewey.MustParse("0"), Type: root},
						{ID: dewey.MustParse("0.12.345"), Type: paper},
						{ID: dewey.ID{0, 1, 4294967295}, Type: title},
					},
				},
			},
		}},
	}
	for _, tc := range cases {
		checkBody(t, tc.name, nil, &tc.resp, nil)
	}
}

// TestEncoderMatchesJSONOnEngineOutput runs real queries — including ones
// that refine, degrade, and carry snippets — and pins the encoder to the
// HTTP projection of each live response.
func TestEncoderMatchesJSONOnEngineOutput(t *testing.T) {
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewFromDocument(doc, nil)
	budgeted := core.NewFromDocument(doc, &core.Config{PostingBudget: 1})
	queries := []string{
		"database query",
		"databse quary",
		"keyword serch xml",
		"twig matching pattern",
	}
	for _, e := range []*core.Engine{eng, budgeted} {
		for _, q := range queries {
			resp, err := e.QueryTermsCtx(t.Context(), tokenize.Query(q), core.StrategyPartition, 3, 0)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			checkBody(t, q, e, resp, nil)
		}
	}
}

// TestEncoderExplainMatchesJSON pins the explain=1 body: for the same
// Outcome, the served bytes are EncodeBody(SearchBody(resp, explain)),
// span tree included as the last field.
func TestEncoderExplainMatchesJSON(t *testing.T) {
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewFromDocument(doc, nil)
	s := New(eng, Config{TraceSampleEvery: -1})
	rt := s.sf.Route("/search", "/search")
	for _, q := range []string{"database query", "databse quary"} {
		out := s.pipe.Search(context.Background(), rt, &SearchRequest{Q: q, Explain: true})
		if out.Code != 200 || out.Explain == nil {
			t.Fatalf("%q: code %d, explain %v", q, out.Code, out.Explain)
		}
		checkBody(t, q, eng, out.Resp, out.Explain)
	}
	// Nested children, attribute-less spans, and names and attributes
	// that need escaping.
	tree := &obs.SpanData{Name: "query", DurationNS: 1500,
		Attrs: map[string]any{"q": `<b>"x" & y</b>`, "terms": int64(2)},
		Children: []*obs.SpanData{
			{Name: "tokenize", DurationNS: 1},
			{Name: `refine\walk`, Attrs: map[string]any{"k": int64(-3)},
				Children: []*obs.SpanData{{Name: "slca"}}},
		}}
	checkBody(t, "synthetic-explain", nil, &core.Response{Terms: []string{"x"}, Degraded: true}, tree)
}

// nodeSnippets is a Backend whose snippets all render from one node, so
// a snippet can carry what a document's text rarely does. The match at
// Dewey 0.2 has no snippet, as on a backend without a document.
type nodeSnippets struct {
	Backend
	n *xmltree.Node
}

func (b nodeSnippets) AppendSnippetJSON(dst []byte, m refine.Match, max int) ([]byte, bool) {
	if m.ID[1] == 2 {
		return dst, false
	}
	return b.n.AppendSnippetJSON(dst, max), true
}

// TestSnippetJSONThroughEncoder drives hostile texts through
// appendResult, whose snippet literal renders straight after its key: the
// body equals EncodeBody(SearchBody(…)) whether dst has room to spare or
// must grow mid-snippet, the literal decodes to the node's Snippet, and a
// result with no snippet leaves no key behind.
func TestSnippetJSONThroughEncoder(t *testing.T) {
	reg := xmltree.NewRegistry()
	paper := reg.Intern(reg.Intern(nil, "bib"), "paper")
	resp := &core.Response{Queries: []core.RankedQuery{{Results: []refine.Match{
		{ID: dewey.ID{0, 1}, Type: paper}, {ID: dewey.ID{0, 2}, Type: paper}, {ID: dewey.ID{0, 3}, Type: paper},
	}}}}
	for _, s := range []string{
		`say "hi" \ there`,
		"html <b>&amp;</b> \xe2\x80\xa8 and \x00 ctrl \x1f",
		"line\xe2\x80\xa8sep\xe2\x80\xa9 é 漢字 😀",
		"invalid \xff\xfe utf8 \xe2\x80",
		strings.Repeat("<&>\"\\\x01\xff", 40), // cut after invalid bytes
	} {
		n := &xmltree.Node{Tag: `p<"&>`, ID: dewey.ID{0, 1}, Text: s}
		body := SearchBody(nodeSnippets{n: n}, resp, nil)
		results := body.Queries[0].Results
		if want := n.Snippet(snippetMax); results[0].Snippet != want || results[2].Snippet != want {
			t.Errorf("text %q: snippets %q, %q, want %q", s, results[0].Snippet, results[2].Snippet, want)
		}
		if results[1].Snippet != "" {
			t.Errorf("text %q: a result with no snippet has %q", s, results[1].Snippet)
		}
		var want bytes.Buffer
		if err := EncodeBody(&want, body); err != nil {
			t.Fatal(err)
		}
		for _, capacity := range []int{0, 1 << 16} {
			got := AppendSearchBody(make([]byte, 0, capacity), resp, nodeSnippets{n: n}, nil)
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("text %q, cap %d:\n got: %q\nwant: %q", s, capacity, got, want.Bytes())
			}
		}
	}
}

// TestTypePathEscaped: tokenized tags are letters and digits, but a loaded
// store or a direct Intern can hold any path. One that is not plain bytes
// is escaped, in results and in search_for alike.
func TestTypePathEscaped(t *testing.T) {
	reg := xmltree.NewRegistry()
	root := reg.Intern(nil, "bib")
	for _, tag := range []string{"a<b>", `q"t`, `back\slash`, "amp&", "sep\xe2\x80\xa8", "bad\xff", "del\x7f", "ctl\x01"} {
		typ := reg.Intern(root, tag)
		resp := &core.Response{
			SearchFor: []searchfor.Candidate{{Type: typ}, {Type: root}},
			Queries:   []core.RankedQuery{{Results: []refine.Match{{ID: dewey.ID{0, 1}, Type: typ}}}},
		}
		checkBody(t, tag, nil, resp, nil)
	}
}

// TestAppendJSONStringMatchesJSON fuzzes the string escaper against
// encoding/json over random byte soup as well as targeted escapes.
func TestAppendJSONStringMatchesJSON(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := xmltree.AppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("string %q: got %q want %q", s, got, want)
		}
		if got := xmltree.AppendJSONString(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Errorf("bytes %q: got %q want %q", s, got, want)
		}
	}
	for i := 0; i < 256; i++ {
		check(string(rune(i)))
		check(string([]byte{byte(i)})) // raw byte, possibly invalid UTF-8
	}
	check("  �￿")
	check(strings.Repeat("<&>\"\\\x00", 7))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		b := make([]byte, rng.Intn(40))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		check(string(b))
	}
}

// TestAppendJSONFloatMatchesJSON fuzzes the float formatter against
// encoding/json across magnitudes, signs, and format boundaries.
func TestAppendJSONFloatMatchesJSON(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("float %v: got %q want %q", f, got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3.0,
		1e-6, 9.999999e-7, 1e-7, 1e21, 9.999e20, 1.0000001e21,
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Pi, 0.30000000000000004, 1e100, 1e-100,
	} {
		check(f)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue // encoding/json rejects these; the engine never emits them
		}
		check(f)
	}
}
