package rank

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xrefine/internal/index"
	"xrefine/internal/searchfor"
	"xrefine/internal/xmltree"
)

// randomIndex builds a random small corpus for ranking properties.
func randomIndex(t *testing.T, r *rand.Rand) *index.Index {
	t.Helper()
	words := []string{"w0", "w1", "w2", "w3", "w4"}
	var b strings.Builder
	b.WriteString("<lib>")
	for i := 0; i < 3+r.Intn(4); i++ {
		b.WriteString("<item><entry>")
		for j := 0; j < 1+r.Intn(5); j++ {
			b.WriteString(words[r.Intn(len(words))] + " ")
		}
		b.WriteString("</entry></item>")
	}
	b.WriteString("</lib>")
	doc, err := xmltree.ParseString(b.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(doc)
}

// Property: Similarity is strictly monotone decreasing in dissimilarity
// whenever the underlying rho is positive (Guideline 4).
func TestPropertySimilarityMonotoneInDSim(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	m := Default()
	for trial := 0; trial < 60; trial++ {
		ix := randomIndex(t, r)
		cands := searchfor.Infer(ix, []string{"w0", "w1"}, nil)
		if len(cands) == 0 {
			continue
		}
		q := []string{"w0", "w9"}
		rq := []string{"w0", "w1"}
		prev := m.Similarity(ix, cands, q, rq, 0)
		if prev <= 0 {
			continue
		}
		for d := 1.0; d <= 6; d++ {
			cur := m.Similarity(ix, cands, q, rq, d)
			if cur >= prev {
				t.Fatalf("trial %d: similarity not decreasing at dSim %v: %v >= %v", trial, d, cur, prev)
			}
			prev = cur
		}
	}
}

// Property: Rank is linear in alpha and beta.
func TestPropertyRankLinearInWeights(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		ix := randomIndex(t, r)
		cands := searchfor.Infer(ix, []string{"w0", "w1"}, nil)
		if len(cands) == 0 {
			continue
		}
		q := []string{"w0", "w9"}
		rq := []string{"w0", "w1"}
		mA := Default()
		mA.Beta = 0
		simOnly, err := mA.Rank(ix, ix, cands, q, rq, 1)
		if err != nil {
			t.Fatal(err)
		}
		mB := Default()
		mB.Alpha = 0
		depOnly, err := mB.Rank(ix, ix, cands, q, rq, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, ab := range [][2]float64{{1, 1}, {2, 1}, {1, 2}, {0.5, 3}} {
			m := Default()
			m.Alpha, m.Beta = ab[0], ab[1]
			got, err := m.Rank(ix, ix, cands, q, rq, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := ab[0]*simOnly + ab[1]*depOnly
			if diff := got - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial %d: rank(%v) = %v, want %v", trial, ab, got, want)
			}
		}
	}
}

// Property: scores are always finite and non-negative under the default
// model for arbitrary keyword combinations.
func TestPropertyRankFiniteNonNegative(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	m := Default()
	for trial := 0; trial < 60; trial++ {
		ix := randomIndex(t, r)
		cands := searchfor.Infer(ix, []string{"w0"}, nil)
		q := make([]string, 1+r.Intn(3))
		rq := make([]string, 1+r.Intn(3))
		for i := range q {
			q[i] = fmt.Sprintf("w%d", r.Intn(8))
		}
		for i := range rq {
			rq[i] = fmt.Sprintf("w%d", r.Intn(8))
		}
		got, err := m.Rank(ix, ix, cands, q, rq, float64(r.Intn(6)))
		if err != nil {
			t.Fatal(err)
		}
		if got < 0 || got != got /* NaN */ || got > 1e12 {
			t.Fatalf("trial %d: rank(%v->%v) = %v", trial, q, rq, got)
		}
	}
}
