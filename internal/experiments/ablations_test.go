package experiments

import "testing"

func TestAblationDecay(t *testing.T) {
	c := testCorpus(t)
	rows, err := AblationDecay(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.CG) != 4 {
			t.Fatalf("%s: CG = %v", r.Model, r.CG)
		}
		for i := 1; i < 4; i++ {
			if r.CG[i] < r.CG[i-1]-1e-9 {
				t.Errorf("%s: CG decreasing", r.Model)
			}
		}
	}
	// At depth 4 all decays see the same candidate pool, so CG@4 must be
	// positive for every variant.
	for _, r := range rows {
		if r.CG[3] <= 0 {
			t.Errorf("%s: empty CG@4", r.Model)
		}
	}
}

func TestAblationSearchFor(t *testing.T) {
	c := testCorpus(t)
	rows, err := AblationSearchFor(c, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.AvgCandidates <= 0 {
			t.Errorf("theta %.2f: no candidates", r.Theta)
		}
		// Higher thresholds admit fewer (or equal) candidates.
		if i > 0 && rows[i-1].Theta < r.Theta && r.AvgCandidates > rows[i-1].AvgCandidates+1e-9 {
			t.Errorf("theta %.2f admits more candidates (%.2f) than %.2f (%.2f)",
				r.Theta, r.AvgCandidates, rows[i-1].Theta, rows[i-1].AvgCandidates)
		}
	}
}
