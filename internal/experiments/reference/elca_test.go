package reference

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xrefine/internal/slca"
)

func TestELCAKnownCase(t *testing.T) {
	// c1 (0.0) holds both keywords; the root additionally holds its own
	// independent witnesses (0.1 has "a", 0.2 has "b"), so both c1 and
	// the root are ELCAs — but only c1 is an SLCA.
	ix := buildIx(t, `<r><c><x>a b</x></c><y>a</y><z>b</z></r>`)
	elca := idsToStrings(ELCA(postingLists(t, ix, "a", "b")))
	if strings.Join(elca, " ") != "0 0.0.0" {
		t.Fatalf("ELCA = %v, want [0 0.0.0]", elca)
	}
	sl := idsToStrings(slca.Compute(slca.AlgoScanEager, lists(t, ix, "a", "b")))
	if strings.Join(sl, " ") != "0.0.0" {
		t.Fatalf("SLCA = %v", sl)
	}
}

func TestELCAExclusionThroughIncompleteMiddle(t *testing.T) {
	// d (0.0.0) is complete; its parent m (0.0) has one extra "a" but no
	// independent "b", so m's witnesses are partly absorbed: m is not an
	// ELCA, and neither is the root (its only "b" witnesses sit inside
	// the complete subtree d... through m).
	ix := buildIx(t, `<r><m><d>a b</d><w>a</w></m><v>a</v></r>`)
	elca := idsToStrings(ELCA(postingLists(t, ix, "a", "b")))
	if strings.Join(elca, " ") != "0.0.0" {
		t.Fatalf("ELCA = %v, want [0.0.0]", elca)
	}
}

func TestELCASupersetOfSLCA(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	for trial := 0; trial < 150; trial++ {
		src := randomDoc(r)
		ix := buildIx(t, src)
		terms := []string{"t0", "t1"}
		if r.Intn(2) == 0 {
			terms = append(terms, "t2")
		}
		slcaSet := map[string]bool{}
		for _, id := range slca.Compute(slca.AlgoScanEager, lists(t, ix, terms...)) {
			slcaSet[id.String()] = true
		}
		elcaSet := map[string]bool{}
		for _, id := range ELCA(postingLists(t, ix, terms...)) {
			elcaSet[id.String()] = true
		}
		for s := range slcaSet {
			if !elcaSet[s] {
				t.Fatalf("trial %d: SLCA %s missing from ELCA\ndoc: %s", trial, s, src)
			}
		}
	}
}

func TestPropertyELCAMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(505))
	for trial := 0; trial < 200; trial++ {
		src := randomDoc(r)
		ix := buildIx(t, src)
		nTerms := 1 + r.Intn(3)
		terms := make([]string, nTerms)
		for i := range terms {
			terms[i] = fmt.Sprintf("t%d", r.Intn(4))
		}
		ls := postingLists(t, ix, terms...)
		want := idsToStrings(NaiveELCA(ls))
		got := idsToStrings(ELCA(ls))
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("trial %d: ELCA(%v) = %v, want %v\ndoc: %s", trial, terms, got, want, src)
		}
	}
}

func TestELCAEmptyInputs(t *testing.T) {
	if got := ELCA(nil); got != nil {
		t.Errorf("ELCA(nil) = %v", got)
	}
	ix := buildIx(t, `<r><a>x</a></r>`)
	if got := ELCA(postingLists(t, ix, "x", "missing")); got != nil {
		t.Errorf("ELCA with empty list = %v", got)
	}
}

func BenchmarkELCA(b *testing.B) {
	ls := benchLists(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ELCA(ls)
	}
}
