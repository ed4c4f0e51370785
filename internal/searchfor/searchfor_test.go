package searchfor

import (
	"math"
	"testing"

	"xrefine/internal/index"
	"xrefine/internal/xmltree"
)

const fig1 = `
<bib>
  <author>
    <name>John Ben</name>
    <publications>
      <inproceedings>
        <title>online DBLP in XML</title>
        <year>2001</year>
      </inproceedings>
      <inproceedings>
        <title>online database systems</title>
        <year>2003</year>
      </inproceedings>
      <article>
        <title>XML data mining</title>
        <year>2003</year>
      </article>
    </publications>
  </author>
  <author>
    <name>Mary Lee</name>
    <publications>
      <inproceedings>
        <title>XML keyword search</title>
        <year>2005</year>
      </inproceedings>
    </publications>
    <hobby>swimming</hobby>
  </author>
</bib>`

func buildIx(t testing.TB) *index.Index {
	t.Helper()
	doc, err := xmltree.ParseString(fig1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(doc)
}

// The paper's running example: for Q0 ~ {john, swimming}, "author is the
// only search for node candidate".
func TestInferPaperExample(t *testing.T) {
	ix := buildIx(t)
	cands := Infer(ix, []string{"john", "swimming"}, nil)
	if len(cands) != 1 {
		t.Fatalf("candidates = %v, want exactly author", cands)
	}
	if cands[0].Type.Path() != "bib/author" {
		t.Errorf("top candidate = %s", cands[0].Type.Path())
	}
}

func TestInferExcludesRoot(t *testing.T) {
	ix := buildIx(t)
	for _, c := range Infer(ix, []string{"xml", "2003", "john", "swimming"}, nil) {
		if c.Type.Parent == nil {
			t.Errorf("root type %s offered as search-for candidate", c.Type.Path())
		}
	}
}

func TestInferOrderingAndThreshold(t *testing.T) {
	ix := buildIx(t)
	cands := Infer(ix, []string{"xml", "2003"}, nil)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if cands[0].Type.Tag != "author" {
		t.Errorf("top candidate = %s, want author", cands[0].Type.Path())
	}
	for i := 1; i < len(cands); i++ {
		if cands[i-1].Confidence < cands[i].Confidence {
			t.Error("candidates not sorted by confidence")
		}
	}
	// Tight threshold keeps only the best.
	tight := Infer(ix, []string{"xml", "2003"}, &Options{Threshold: 0.999})
	if len(tight) != 1 {
		t.Errorf("tight threshold gave %d candidates", len(tight))
	}
	// MaxCandidates caps.
	capped := Infer(ix, []string{"xml", "2003"}, &Options{Threshold: 0.01, MaxCandidates: 2})
	if len(capped) > 2 {
		t.Errorf("cap ignored: %d", len(capped))
	}
}

func TestInferUnknownTerms(t *testing.T) {
	ix := buildIx(t)
	if cands := Infer(ix, []string{"zzz", "qqq"}, nil); cands != nil {
		t.Errorf("unknown terms produced candidates: %v", cands)
	}
}

func TestConfidenceFormula(t *testing.T) {
	ix := buildIx(t)
	author, _ := ix.Types.ByPath("bib/author")
	// f_john^author = 1, f_swimming^author = 1 => ln(3) * 0.8^1
	got := Confidence(ix, []string{"john", "swimming"}, author, 0.8)
	want := math.Log(3) * 0.8
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("confidence = %v, want %v", got, want)
	}
	if c := Confidence(ix, []string{"zzz"}, author, 0.8); c != 0 {
		t.Errorf("zero-df confidence = %v", c)
	}
}

func TestJudgeMeaningful(t *testing.T) {
	ix := buildIx(t)
	j := NewJudge(Infer(ix, []string{"john", "swimming"}, nil)) // {author}
	hobby, _ := ix.Types.ByPath("bib/author/hobby")
	author, _ := ix.Types.ByPath("bib/author")
	bib, _ := ix.Types.ByPath("bib")
	if !j.Meaningful(hobby) {
		t.Error("hobby (descendant of author) should be meaningful")
	}
	if !j.Meaningful(author) {
		t.Error("author itself should be meaningful")
	}
	if j.Meaningful(bib) {
		t.Error("root must not be meaningful (paper: typical meaningless SLCA)")
	}
	// memoized second call agrees
	if !j.Meaningful(hobby) || j.Meaningful(bib) {
		t.Error("memoization changed verdicts")
	}
}

func TestEmptyJudge(t *testing.T) {
	ix := buildIx(t)
	j := NewJudge(nil)
	author, _ := ix.Types.ByPath("bib/author")
	if j.Meaningful(author) {
		t.Error("empty judge should call nothing meaningful")
	}
	if len(j.Candidates()) != 0 {
		t.Error("candidates leaked")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := (&Options{Reduction: -1, Threshold: 2, MaxCandidates: -5}).withDefaults()
	d := DefaultOptions()
	if o != d {
		t.Errorf("invalid options not replaced by defaults: %+v", o)
	}
	o2 := (&Options{Reduction: 0.5, Threshold: 0.5, MaxCandidates: 7}).withDefaults()
	if o2.Reduction != 0.5 || o2.Threshold != 0.5 || o2.MaxCandidates != 7 {
		t.Errorf("valid options overridden: %+v", o2)
	}
}
