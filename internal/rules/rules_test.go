package rules

import (
	"strings"
	"testing"

	"xrefine/internal/index"
	"xrefine/internal/lexicon"
	"xrefine/internal/strdist"
	"xrefine/internal/xmltree"
)

func TestOpString(t *testing.T) {
	if OpMerge.String() != "merge" || OpSplit.String() != "split" ||
		OpSubstitute.String() != "substitute" || Op(9).String() != "unknown" {
		t.Error("Op.String broken")
	}
}

func TestSetAddValidation(t *testing.T) {
	s := NewSet(0)
	if s.DeleteCost != DefaultDeleteCost {
		t.Errorf("default delete cost = %v", s.DeleteCost)
	}
	bad := []Rule{
		{Op: OpMerge, LHS: nil, RHS: []string{"x"}, Score: 1},
		{Op: OpMerge, LHS: []string{"a"}, RHS: nil, Score: 1},
		{Op: OpMerge, LHS: []string{"a"}, RHS: []string{"b"}, Score: 0},
		{Op: OpMerge, LHS: []string{"A"}, RHS: []string{"b"}, Score: 1},      // not normalized
		{Op: OpSubstitute, LHS: []string{"a"}, RHS: []string{"a"}, Score: 1}, // identity
	}
	for _, r := range bad {
		if err := s.Add(r); err == nil {
			t.Errorf("Add(%v) accepted", r)
		}
	}
	if s.Len() != 0 {
		t.Errorf("bad rules stored: %d", s.Len())
	}
}

func TestSetDedupKeepsCheaper(t *testing.T) {
	s := NewSet(0)
	if err := s.Add(Rule{Op: OpSubstitute, LHS: []string{"a"}, RHS: []string{"b"}, Score: 3, Origin: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Rule{Op: OpSubstitute, LHS: []string{"a"}, RHS: []string{"b"}, Score: 1, Origin: "y"}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	if got := s.ByLastLHS("a"); len(got) != 1 || s.Rule(got[0]).Score != 1 || s.Rule(got[0]).Origin != "y" {
		t.Fatalf("dedup kept %+v", s.Rules())
	}
	// More expensive duplicate does not override.
	if err := s.Add(Rule{Op: OpSubstitute, LHS: []string{"a"}, RHS: []string{"b"}, Score: 5}); err != nil {
		t.Fatal(err)
	}
	if got := s.ByLastLHS("a"); s.Rule(got[0]).Score != 1 {
		t.Fatal("expensive duplicate overrode cheaper rule")
	}
}

func TestByLastLHS(t *testing.T) {
	s := NewSet(0)
	s.Add(Rule{Op: OpMerge, LHS: []string{"on", "line"}, RHS: []string{"online"}, Score: 1})
	s.Add(Rule{Op: OpSubstitute, LHS: []string{"line"}, RHS: []string{"lines"}, Score: 1})
	s.Add(Rule{Op: OpSubstitute, LHS: []string{"base"}, RHS: []string{"bases"}, Score: 1})
	if got := s.ByLastLHS("line"); len(got) != 2 {
		t.Fatalf("ByLastLHS(line) = %d rules", len(got))
	}
	if got := s.ByLastLHS("on"); len(got) != 0 {
		t.Fatalf("ByLastLHS(on) = %d rules", len(got))
	}
	// The lookup and the accessor hand out the stored rules: no copy.
	if allocs := testing.AllocsPerRun(10, func() {
		for _, i := range s.ByLastLHS("line") {
			_ = s.Rule(i)
		}
	}); allocs != 0 {
		t.Errorf("ByLastLHS + Rule allocated %v times", allocs)
	}
	if i := s.ByLastLHS("base")[0]; s.Rule(i) != s.Rule(i) || s.Rule(i).RHS[0] != "bases" {
		t.Error("Rule must point at the stored rule")
	}
}

func TestNewKeywords(t *testing.T) {
	s := NewSet(0)
	s.Add(Rule{Op: OpMerge, LHS: []string{"on", "line"}, RHS: []string{"online"}, Score: 1})
	s.Add(Rule{Op: OpSubstitute, LHS: []string{"db"}, RHS: []string{"database"}, Score: 1})
	got := s.NewKeywords([]string{"on", "line", "database"})
	if strings.Join(got, " ") != "online" {
		t.Fatalf("NewKeywords = %v", got)
	}
}

const corpus = `
<bib>
  <paper><title>online database systems</title><year>2003</year></paper>
  <paper><title>efficient keyword search</title><year>2005</year></paper>
  <paper><title>machine learning for the world wide web</title><year>2006</year></paper>
  <paper><title>skyline computation</title><year>2007</year></paper>
  <paper><title>matching twig patterns</title><year>2008</year></paper>
  <paper><title>proceedings of data mining</title><year>2008</year></paper>
</bib>`

func buildIx(t testing.TB) *index.Index {
	t.Helper()
	doc, err := xmltree.ParseString(corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(doc)
}

func findRule(s *Set, origin string, lhs, rhs string) *Rule {
	for _, r := range s.Rules() {
		if r.Origin == origin && strings.Join(r.LHS, ",") == lhs && strings.Join(r.RHS, ",") == rhs {
			return &r
		}
	}
	return nil
}

func TestGenerateMerge(t *testing.T) {
	ix := buildIx(t)
	s, err := Generator{}.Generate(ix, []string{"on", "line", "database"})
	if err != nil {
		t.Fatal(err)
	}
	r := findRule(s, "merge", "on,line", "online")
	if r == nil {
		t.Fatalf("merge rule missing; rules: %v", s.Rules())
	}
	if r.Score != 1 {
		t.Errorf("merge score = %v, want 1", r.Score)
	}
}

func TestGenerateSplit(t *testing.T) {
	ix := buildIx(t)
	// "skylinecomputation" splits into two data terms.
	s, err := Generator{}.Generate(ix, []string{"skylinecomputation"})
	if err != nil {
		t.Fatal(err)
	}
	r := findRule(s, "split", "skylinecomputation", "skyline,computation")
	if r == nil {
		t.Fatalf("split rule missing; rules: %v", s.Rules())
	}
	if r.Score != 1 {
		t.Errorf("split score = %v", r.Score)
	}
}

func TestGenerateSpelling(t *testing.T) {
	ix := buildIx(t)
	s, err := Generator{}.Generate(ix, []string{"eficient", "databse"})
	if err != nil {
		t.Fatal(err)
	}
	if r := findRule(s, "spelling", "eficient", "efficient"); r == nil || r.Score != 1 {
		t.Errorf("eficient->efficient rule: %+v", r)
	}
	if r := findRule(s, "spelling", "databse", "database"); r == nil || r.Score != 1 {
		t.Errorf("databse->database rule: %+v", r)
	}
	// Terms already in the data are not "corrected" by default.
	s2, _ := Generator{}.Generate(ix, []string{"keyword"})
	for _, r := range s2.Rules() {
		if r.Origin == "spelling" {
			t.Errorf("known term got spelling rule: %v", r)
		}
	}
}

func TestGenerateStemming(t *testing.T) {
	ix := buildIx(t)
	s, err := Generator{}.Generate(ix, []string{"match", "learn"})
	if err != nil {
		t.Fatal(err)
	}
	if r := findRule(s, "stem", "match", "matching"); r == nil {
		t.Errorf("match->matching stem rule missing: %v", s.Rules())
	}
	if r := findRule(s, "stem", "learn", "learning"); r == nil {
		t.Errorf("learn->learning stem rule missing")
	}
}

func TestGenerateSynonymsAndAcronyms(t *testing.T) {
	ix := buildIx(t)
	g := Generator{Lexicon: lexicon.Builtin()}
	s, err := g.Generate(ix, []string{"publication", "www"})
	if err != nil {
		t.Fatal(err)
	}
	if r := findRule(s, "synonym", "publication", "proceedings"); r == nil {
		t.Errorf("publication->proceedings synonym missing: %v", s.Rules())
	}
	if r := findRule(s, "acronym", "www", "world,wide,web"); r == nil {
		t.Errorf("www expansion missing")
	}
	// Contraction: query contains the expansion, data has... "www" is
	// not in this corpus, so no contraction rule may exist.
	s2, _ := g.Generate(ix, []string{"world", "wide", "web"})
	if r := findRule(s2, "acronym", "world,wide,web", "www"); r != nil {
		t.Errorf("contraction to absent term generated: %v", r)
	}
}

func TestGenerateRHSAlwaysInData(t *testing.T) {
	ix := buildIx(t)
	g := Generator{Lexicon: lexicon.Builtin()}
	s, err := g.Generate(ix, []string{"on", "line", "databse", "match", "publication", "www", "skylinecomputation"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() == 0 {
		t.Fatal("no rules generated")
	}
	for _, r := range s.Rules() {
		for _, k := range r.RHS {
			if !ix.HasTerm(k) {
				t.Errorf("rule %v has RHS keyword %q absent from data", r, k)
			}
		}
	}
}

// TestSpellingCandidateCap: a term with more candidates than the cap gets
// only the cap's closest, frequent ones. "2004" is one edit from each of
// the five years; 2008 is the most frequent.
func TestSpellingCandidateCap(t *testing.T) {
	ix := buildIx(t)
	if n := len(strdist.Within(nil, ix.Vocabulary(), "2004", maxEditDistance)); n <= maxSpellingCandidates {
		t.Fatalf("2004 has %d candidates, want more than %d", n, maxSpellingCandidates)
	}
	s, err := Generator{}.Generate(ix, []string{"2004"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range s.Rules() {
		if r.Origin == "spelling" {
			got = append(got, r.RHS[0])
		}
	}
	if strings.Join(got, " ") != "2008 2003 2005" {
		t.Errorf("spelling rules for 2004 = %v, want 2008 2003 2005", got)
	}
}
