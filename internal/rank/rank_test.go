package rank

import (
	"math"
	"testing"

	"xrefine/internal/index"
	"xrefine/internal/searchfor"
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

func ty(t testing.TB, ix *index.Index, path string) *xmltree.Type {
	t.Helper()
	typ, ok := ix.Types.ByPath(path)
	if !ok {
		t.Fatalf("type %s missing", path)
	}
	return typ
}

func almost(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestImpFormula2(t *testing.T) {
	ix := buildIx(t)
	author := ty(t, ix, "bib/author")
	// tf(xml,author)=3, tf(2003,author)=2, G_author = GT.
	g := float64(ix.GT(author))
	almost(t, "Imp", Imp(ix, []string{"xml", "2003"}, author), (3+2)/g)
	// Unknown keyword contributes zero.
	almost(t, "Imp-unknown", Imp(ix, []string{"zzz"}, author), 0)
}

func TestImpKFormula3(t *testing.T) {
	ix := buildIx(t)
	author := ty(t, ix, "bib/author")
	// N_author = 2, f_swimming^author = 1 -> ln(2/2) = 0
	almost(t, "ImpK(swimming)", ImpK(ix, "swimming", author), 0)
	// f_zzz^author = 0 -> ln(2/1) = ln 2
	almost(t, "ImpK(zzz)", ImpK(ix, "zzz", author), math.Log(2))
	// clamped at zero: f = N -> ln(N/(N+1)) < 0 -> 0
	inproc := ty(t, ix, "bib/author/publications/inproceedings")
	// f_title^inproceedings = 3 = N_inproceedings -> clamp
	almost(t, "ImpK(title)", ImpK(ix, "title", inproc), 0)
}

func TestDelta(t *testing.T) {
	got := Delta([]string{"on", "line", "data", "base"}, []string{"online", "data", "base"})
	want := map[string]bool{"on": true, "line": true, "online": true}
	if len(got) != len(want) {
		t.Fatalf("Delta = %v", got)
	}
	for _, k := range got {
		if !want[k] {
			t.Errorf("unexpected delta member %q", k)
		}
	}
	if d := Delta([]string{"a"}, []string{"a"}); len(d) != 0 {
		t.Errorf("Delta of identical = %v", d)
	}
}

func TestConfFormula7(t *testing.T) {
	ix := buildIx(t)
	inproc := ty(t, ix, "bib/author/publications/inproceedings")
	// f_online^inproc = 2; both online inproceedings, one contains
	// database -> C(online => database) = 1/2.
	c, err := Conf(ix, ix, "online", "database", inproc)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "C(online=>database)", c, 0.5)
	// C(database => online) = 1/1 = 1.
	c2, err := Conf(ix, ix, "database", "online", inproc)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "C(database=>online)", c2, 1)
	// Absent antecedent -> 0.
	c3, err := Conf(ix, ix, "zzz", "online", inproc)
	if err != nil || c3 != 0 {
		t.Errorf("C(zzz=>online) = %v, %v", c3, err)
	}
}

func TestDependenceAtFormula8(t *testing.T) {
	ix := buildIx(t)
	inproc := ty(t, ix, "bib/author/publications/inproceedings")
	// RQ = {online, database}: (C(d=>o) + C(o=>d)) / 2 = (1 + 0.5)/2
	d, err := DependenceAt(ix, ix, []string{"online", "database"}, inproc)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "DependenceAt", d, 0.75)
	// Single-keyword RQ has no pairwise dependence.
	d1, err := DependenceAt(ix, ix, []string{"online"}, inproc)
	if err != nil || d1 != 0 {
		t.Errorf("singleton dependence = %v, %v", d1, err)
	}
}

func cands(t *testing.T, ix *index.Index, terms ...string) []searchfor.Candidate {
	t.Helper()
	c := searchfor.Infer(ix, terms, nil)
	if len(c) == 0 {
		t.Fatal("no search-for candidates")
	}
	return c
}

func TestSimilarityDecayGuideline4(t *testing.T) {
	ix := buildIx(t)
	m := Default()
	cs := cands(t, ix, "online", "database")
	q := []string{"on", "line", "data", "base"}
	rq := []string{"online", "database"}
	s2 := m.Similarity(ix, cs, q, rq, 2)
	s4 := m.Similarity(ix, cs, q, rq, 4)
	if s2 <= 0 {
		t.Fatalf("similarity at dSim 2 = %v, want > 0", s2)
	}
	// The same RQ at larger dissimilarity ranks strictly lower, with
	// exactly the 0.8^Δ ratio.
	almost(t, "decay ratio", s4/s2, math.Pow(0.8, 2))
	// Ablating G4 removes the decay entirely.
	m4 := Default()
	m4.NoG4 = true
	if m4.Similarity(ix, cs, q, rq, 2) != m4.Similarity(ix, cs, q, rq, 4) {
		t.Error("RS4 must ignore dissimilarity")
	}
}

func TestAblationSwitches(t *testing.T) {
	ix := buildIx(t)
	cs := cands(t, ix, "online", "database")
	q := []string{"on", "line", "data", "base"}
	rq := []string{"online", "database"}
	base := Default()
	r0 := base.Rho(ix, cs, q, rq)
	m1 := Default()
	m1.NoG1 = true
	m2 := Default()
	m2.NoG2 = true
	m3 := Default()
	m3.NoG3 = true
	if m1.Rho(ix, cs, q, rq) == r0 {
		t.Error("RS1 changed nothing")
	}
	if m2.Rho(ix, cs, q, rq) == r0 {
		t.Error("RS2 changed nothing")
	}
	if len(cs) > 1 && m3.Rho(ix, cs, q, rq) == r0 {
		t.Error("RS3 changed nothing with multiple candidates")
	}
	// RS3 with one candidate drops only the confidence weight.
	one := cs[:1]
	almost(t, "RS3 single candidate", m3.Rho(ix, one, q, rq), base.Rho(ix, one, q, rq)/one[0].Confidence)
}

func TestRankFormula10(t *testing.T) {
	ix := buildIx(t)
	cs := cands(t, ix, "online", "database")
	q := []string{"on", "line", "data", "base"}
	rq := []string{"online", "database"}
	m := Default()
	r, err := m.Rank(ix, ix, cs, q, rq, 2)
	if err != nil {
		t.Fatal(err)
	}
	sim := m.Similarity(ix, cs, q, rq, 2)
	dep, err := m.Dependence(ix, cs, rq)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "Rank = sim + dep", r, sim+dep)
	// α=1, β=0 drops the dependence term.
	mA := Default()
	mA.Beta = 0
	rA, err := mA.Rank(ix, ix, cs, q, rq, 2)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "alpha-only rank", rA, sim)
	// α=0, β=1 keeps only dependence.
	mB := Default()
	mB.Alpha = 0
	rB, err := mB.Rank(ix, ix, cs, q, rq, 2)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "beta-only rank", rB, dep)
}

func TestRankEmptyCandidates(t *testing.T) {
	ix := buildIx(t)
	m := Default()
	r, err := m.Rank(ix, ix, nil, []string{"a"}, []string{"b"}, 1)
	if err != nil || r != 0 {
		t.Errorf("rank with no candidates = %v, %v", r, err)
	}
}

// A query refined toward terms that strongly co-occur must outrank one
// refined toward unrelated terms at equal dissimilarity — the paper's
// motivation for the dependence score (Guideline 5).
func TestDependenceDiscriminates(t *testing.T) {
	ix := buildIx(t)
	cs := cands(t, ix, "online", "database")
	m := Default()
	co, err := m.Dependence(ix, cs, []string{"online", "database"})
	if err != nil {
		t.Fatal(err)
	}
	un, err := m.Dependence(ix, cs, []string{"online", "swimming"})
	if err != nil {
		t.Fatal(err)
	}
	if co <= un {
		t.Errorf("co-occurring pair dep %v <= unrelated pair dep %v", co, un)
	}
}
