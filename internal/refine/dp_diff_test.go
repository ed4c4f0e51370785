package refine

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"xrefine/internal/rules"
)

// dpQueryVocab and dpTargetVocab are the differential's keywords. Some are
// prefixes of others, so that key order and keyword order must agree on
// "a" < "ab" < "b"; the targets include query keywords, so that rules can
// re-produce a kept keyword.
var (
	dpQueryVocab  = []string{"a", "ab", "b", "c"}
	dpTargetVocab = []string{"a", "b", "ba", "w", "x", "xy", "y", "z"}
	// Scores repeat, so derivations tie on cost; 0.1 and 0.2 do not sum
	// exactly, so a cost's bits depend on the order it was summed in.
	dpScores = []float64{0.1, 0.2, 1, 1, 2, 3}
)

// dpInstance draws a query of 1–6 keywords, with repeats, and up to eight
// rules whose LHS (often a contiguous piece of the query) and RHS hold 1–3
// keywords.
func dpInstance(r *rand.Rand) ([]string, *rules.Set) {
	q := make([]string, 1+r.Intn(6))
	for i := range q {
		q[i] = dpQueryVocab[r.Intn(len(dpQueryVocab))]
	}
	pick := func(vocab []string) []string {
		out := make([]string, 1+r.Intn(3))
		for i := range out {
			out[i] = vocab[r.Intn(len(vocab))]
		}
		return out
	}
	rs := rules.NewSet(2)
	for range r.Intn(9) {
		lhs := pick(dpQueryVocab)
		if r.Intn(2) == 0 {
			i := r.Intn(len(q))
			lhs = slices.Clone(q[i : i+1+r.Intn(min(3, len(q)-i))])
		}
		// Add refuses duplicates and identity rules; the draw goes on.
		_ = rs.Add(rules.Rule{Op: rules.Op(r.Intn(3)), LHS: lhs, RHS: pick(dpTargetVocab), Score: dpScores[r.Intn(len(dpScores))]})
	}
	return q, rs
}

// dpDiff describes the first difference between two DP outputs in
// keywords, dSim bits or steps (operation, LHS, RHS, score), or is "".
func dpDiff(got, want []RQ) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d refined queries, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !slices.Equal(g.Keywords, w.Keywords) || math.Float64bits(g.DSim) != math.Float64bits(w.DSim) {
			return fmt.Sprintf("#%d: %v dSim %v, want %v dSim %v", i, g, g.DSim, w, w.DSim)
		}
		if len(g.Steps) != len(w.Steps) {
			return fmt.Sprintf("#%d %v: steps %v, want %v", i, w, g.Steps, w.Steps)
		}
		for j := range w.Steps {
			gs, ws := g.Steps[j], w.Steps[j]
			same := gs.Delete == ws.Delete && (gs.Rule == nil) == (ws.Rule == nil)
			if same && gs.Rule != nil {
				same = gs.Rule.Op == ws.Rule.Op && slices.Equal(gs.Rule.LHS, ws.Rule.LHS) &&
					slices.Equal(gs.Rule.RHS, ws.Rule.RHS) && math.Float64bits(gs.Rule.Score) == math.Float64bits(ws.Rule.Score)
			}
			if !same {
				return fmt.Sprintf("#%d %v: step %d is %v, want %v", i, w, j, gs, ws)
			}
		}
	}
	return ""
}

// randomAvail draws an availability set over both vocabularies.
func randomAvail(r *rand.Rand) map[string]bool {
	av := map[string]bool{}
	for _, kw := range append(slices.Clone(dpQueryVocab), dpTargetVocab...) {
		if r.Intn(3) != 0 {
			av[kw] = true
		}
	}
	return av
}

// TestDPDifferential: the bitset DP returns exactly what the string-keyed
// beam it replaced returns — the same refined queries in the same order,
// with the same dSim bits and the same steps — for every m and beam width.
func TestDPDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	trials := 400
	if testing.Short() {
		trials = 100
	}
	nonEmpty := 0
	for trial := range trials {
		q, rs := dpInstance(r)
		av := randomAvail(r)
		for _, m := range []int{1, 2, 6, 20} {
			for _, beam := range []int{m, 2 * m, 4 * m} {
				want := refTopRQsBeam(q, av, rs, m, beam)
				if d := dpDiff(TopRQsBeam(q, av, rs, m, beam), want); d != "" {
					t.Fatalf("trial %d q=%v rules=%v avail=%v m=%d beam=%d: %s", trial, q, rs.Rules(), av, m, beam, d)
				}
				if len(want) > 1 {
					nonEmpty++
				}
			}
		}
	}
	if nonEmpty < trials {
		t.Fatalf("only %d runs returned two or more refined queries: the instances are too thin", nonEmpty)
	}
}

// scanKeywordsOf orders an instance's keywords as the walk does: Q's
// distinct keywords in Q order, then the rules' new keywords, sorted.
func scanKeywordsOf(q []string, rs *rules.Set) []string {
	var ks []string
	for _, kw := range append(slices.Clone(q), rs.NewKeywords(q)...) {
		if !slices.Contains(ks, kw) {
			ks = append(ks, kw)
		}
	}
	return ks
}

// maskAvail returns the available-keyword set of mask over ks.
func maskAvail(ks []string, mask []byte) map[string]bool {
	av := map[string]bool{}
	for i, kw := range ks {
		if maskHas(mask, i) {
			av[kw] = true
		}
	}
	return av
}

// checkCands compares a memo entry with the reference beam for the same
// availability, and checks each candidate's key and keyword columns.
func checkCands(t *testing.T, cands []dpCand, q []string, rs *rules.Set, ks []string, mask []byte, k int) {
	t.Helper()
	rqs := make([]RQ, len(cands))
	for i, c := range cands {
		rqs[i] = c.rq
		if c.key != c.rq.Key() {
			t.Fatalf("q=%v mask=%08b: key %q, want %q", q, mask, c.key, c.rq.Key())
		}
		for j, kw := range c.rq.Keywords {
			if ks[c.cols[j]] != kw {
				t.Fatalf("q=%v mask=%08b: column %d of %v is %q", q, mask, c.cols[j], c.rq, ks[c.cols[j]])
			}
		}
	}
	if d := dpDiff(rqs, refTopRQsBeam(q, maskAvail(ks, mask), rs, 2*k, 4*k)); d != "" {
		t.Fatalf("q=%v rules=%v ks=%v mask=%08b k=%d: %s", q, rs.Rules(), ks, mask, k, d)
	}
}

// randomMask draws a keyword mask over n scan keywords.
func randomMask(r *rand.Rand, n int) []byte {
	mask := make([]byte, (n+7)/8)
	for i := range n {
		if r.Intn(3) != 0 {
			mask[i/8] |= 1 << (i % 8)
		}
	}
	return mask
}

// TestFractionalScoresOneDSimPerRQ: a shard walk's merge meets one refined
// query in several shard lists, each with the dSim its shard's masks gave
// it, so the dynamic program must give one keyword set the same dSim, to
// the bit, in every mask that surfaces it. The instances' scores include
// 0.1 and 0.2, whose sums depend on the order of addition. A cost is
// summed along the query, so
// one derivation has one sum, and prune keeps the cheapest derivation of
// each set. The beam is what could still differ between masks: a beam
// narrower than the walk's 4K can drop a set's cheapest derivation in one
// mask and keep it in another.
func TestFractionalScoresOneDSimPerRQ(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	trials := 1000
	if testing.Short() {
		trials = 200
	}
	shared, fractional := 0, 0
	for range trials {
		q, rs := dpInstance(r)
		ks := scanKeywordsOf(q, rs)
		in := Input{Query: q, Rules: rs}
		for _, k := range []int{1, 3, 10} {
			var x dpScratch
			dSims := map[string]float64{}
			for range 20 {
				mask := randomMask(r, len(ks))
				for _, c := range x.runDP(in, k, ks, mask) {
					d, ok := dSims[c.key]
					if !ok {
						dSims[c.key] = c.rq.DSim
						if c.rq.DSim != math.Trunc(c.rq.DSim) {
							fractional++
						}
						continue
					}
					shared++
					if math.Float64bits(d) != math.Float64bits(c.rq.DSim) {
						t.Fatalf("q=%v rules=%v k=%d: %v has dSim %v in mask %08b and %v in an earlier one", q, rs.Rules(), k, c.rq, c.rq.DSim, mask, d)
					}
				}
			}
		}
	}
	if shared == 0 || fractional == 0 {
		t.Fatalf("%d refined queries met again in another mask, %d with a fractional dSim: the instances are too thin", shared, fractional)
	}
	t.Logf("%d refined queries met again in another mask; %d first met with a fractional dSim", shared, fractional)
}

// TestDPScratchReuse: one scratch, as one scan holds it, runs the walk's
// DP for mask after mask and K after K, and every run matches the
// reference beam; outputs of earlier runs are not disturbed by later ones,
// nor by appends to their slices.
func TestDPScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(541))
	for trial := range 100 {
		q, rs := dpInstance(r)
		ks := scanKeywordsOf(q, rs)
		in := Input{Query: q, Rules: rs}
		var x dpScratch
		type run struct {
			cands []dpCand
			mask  []byte
			k     int
			sig   string
		}
		var runs []run
		for range 12 {
			mask, k := randomMask(r, len(ks)), []int{1, 3, 10}[r.Intn(3)]
			cands := x.runDP(in, k, ks, mask)
			checkCands(t, cands, q, rs, ks, mask, k)
			runs = append(runs, run{cands, mask, k, fmt.Sprint(cands)})
			for _, c := range cands {
				_ = append(c.rq.Keywords, "zz")
				_ = append(c.rq.Steps, Step{Delete: "zz"})
				_ = append(c.cols, -1)
			}
		}
		for _, ru := range runs {
			if fmt.Sprint(ru.cands) != ru.sig {
				t.Fatalf("trial %d: a later run changed an earlier output:\n%s\nnow\n%v", trial, ru.sig, ru.cands)
			}
			checkCands(t, ru.cands, q, rs, ks, ru.mask, ru.k)
		}
	}
}

// TestDPScratchConcurrentMemo: scans on several goroutines, each with its
// own scratch, share one memo as the shard scans of a walk do; whichever
// scan runs a mask, every scan reads the reference output. Run it under
// -race.
func TestDPScratchConcurrentMemo(t *testing.T) {
	r := rand.New(rand.NewSource(542))
	for range 20 {
		q, rs := dpInstance(r)
		ks := scanKeywordsOf(q, rs)
		in := Input{Query: q, Rules: rs}
		masks := make([][]byte, 16)
		for i := range masks {
			masks[i] = randomMask(r, len(ks))
		}
		memo := new(dpMemo)
		got := make([][][]dpCand, 4)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var x dpScratch
				got[g] = make([][]dpCand, len(masks))
				for j := range masks {
					i := (j + 5*g) % len(masks)
					got[g][i] = memo.get(in, 3, ks, masks[i], &x)
				}
			}()
		}
		wg.Wait()
		for g := range got {
			for i, mask := range masks {
				checkCands(t, got[g][i], q, rs, ks, mask, 3)
			}
		}
	}
}

// TestDPMemoHashCollision: the memo is keyed by a hash of the mask, and
// two masks whose hashes collide still get each its own run. The
// collision is forced by filing a second mask's hash under the first
// mask's entry.
func TestDPMemoHashCollision(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	q, rs := dpInstance(r)
	ks := scanKeywordsOf(q, rs)
	in := Input{Query: q, Rules: rs}
	a, b := randomMask(r, len(ks)), randomMask(r, len(ks))
	for string(a) == string(b) {
		b = randomMask(r, len(ks))
	}
	memo := new(dpMemo)
	var x dpScratch
	memo.get(in, 3, ks, a, &x)
	memo.byHash[maphash.Bytes(memoSeed, b)] = memo.byHash[maphash.Bytes(memoSeed, a)]
	checkCands(t, memo.get(in, 3, ks, b, &x), q, rs, ks, b, 3)
	checkCands(t, memo.get(in, 3, ks, a, &x), q, rs, ks, a, 3)
	if memo.runs() != 2 {
		t.Errorf("%d runs for two masks", memo.runs())
	}
}

// TestDPTieKeepsFirstDerivation pins prune's tie rule: when two
// derivations of one keyword set tie on cost, the first generated keeps
// its provenance — keep before delete before rules, and rules in
// ByLastLHS (insertion) order.
func TestDPTieKeepsFirstDerivation(t *testing.T) {
	ab := rules.Rule{Op: rules.OpMerge, LHS: []string{"a", "b"}, RHS: []string{"x"}, Score: 3}
	bx := rules.Rule{Op: rules.OpSubstitute, LHS: []string{"b"}, RHS: []string{"x"}, Score: 1}
	ba := rules.Rule{Op: rules.OpMerge, LHS: []string{"b", "a"}, RHS: []string{"a"}, Score: 2}
	b2a := rules.Rule{Op: rules.OpSubstitute, LHS: []string{"b"}, RHS: []string{"a"}, Score: 2}
	del := func(kw string) string { return "delete " + kw }
	cases := []struct {
		name  string
		q     []string
		rules []rules.Rule
		avail []string
		want  []string // the steps of the refined query {want[0]}
	}{
		// {x} costs 3 as "a b -> x" and as "delete a, b -> x".
		{"rules in insertion order", []string{"a", "b"}, []rules.Rule{ab, bx}, []string{"x"}, []string{"x", ab.String()}},
		{"rules in insertion order, swapped", []string{"a", "b"}, []rules.Rule{bx, ab}, []string{"x"}, []string{"x", del("a"), bx.String()}},
		// {a} costs 2 as "delete b, keep a" and as "b a -> a".
		{"keep before rules", []string{"b", "a"}, []rules.Rule{ba}, []string{"a"}, []string{"a", del("b")}},
		// {a} costs 2 as "keep a, delete b" and as "keep a, b -> a".
		{"delete before rules", []string{"a", "b"}, []rules.Rule{b2a}, []string{"a"}, []string{"a", del("b")}},
	}
	for _, tc := range cases {
		rs := rules.NewSet(2)
		for _, ru := range tc.rules {
			mustAdd(t, rs, ru)
		}
		av := avail(tc.avail...)
		got := TopRQs(tc.q, av, rs, 6)
		if d := dpDiff(got, refTopRQsBeam(tc.q, av, rs, 6, 12)); d != "" {
			t.Fatalf("%s: %s", tc.name, d)
		}
		var steps []string
		for _, rq := range got {
			if rq.Key() == tc.want[0] {
				for _, s := range rq.Steps {
					steps = append(steps, s.String())
				}
			}
		}
		if strings.Join(steps, "; ") != strings.Join(tc.want[1:], "; ") {
			t.Errorf("%s: {%s} has steps %q, want %q", tc.name, tc.want[0], steps, tc.want[1:])
		}
	}
}

// TestDPAllocs: once its buffers have grown, a scratch runs a memo miss
// allocating only the entry's output — the candidate, keyword, column and
// step slabs and one key string — however wide the beam.
func TestDPAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	rs := rules.NewSet(2)
	for _, ru := range []rules.Rule{
		{Op: rules.OpMerge, LHS: []string{"on", "line"}, RHS: []string{"online"}, Score: 1},
		{Op: rules.OpSubstitute, LHS: []string{"databse"}, RHS: []string{"database"}, Score: 1},
		{Op: rules.OpSubstitute, LHS: []string{"databse"}, RHS: []string{"databases"}, Score: 1.5},
		{Op: rules.OpSplit, LHS: []string{"keyword"}, RHS: []string{"key", "word"}, Score: 1},
		{Op: rules.OpSubstitute, LHS: []string{"query"}, RHS: []string{"queries"}, Score: 0.5},
	} {
		mustAdd(t, rs, ru)
	}
	q := []string{"on", "line", "databse", "keyword", "query", "xml"}
	ks := scanKeywordsOf(q, rs)
	in := Input{Query: q, Rules: rs}
	mask := make([]byte, (len(ks)+7)/8)
	for i := range ks {
		mask[i/8] |= 1 << (i % 8)
	}
	var x dpScratch
	const ceiling = 5 // candidates, keywords, columns, steps, keys
	for _, k := range []int{1, 3, 10, 1 << 20} {
		cands := x.runDP(in, k, ks, mask)
		if len(cands) < 2 {
			t.Fatalf("k=%d: %d candidates, want a full cell", k, len(cands))
		}
		got := testing.AllocsPerRun(20, func() { x.runDP(in, k, ks, mask) })
		t.Logf("k=%d: %d candidates, %.0f allocations per run", k, len(cands), got)
		if got > ceiling {
			t.Errorf("k=%d: a memo miss allocated %.0f times, ceiling %d", k, got, ceiling)
		}
	}
}
