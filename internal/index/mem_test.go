package index_test

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"xrefine/internal/datagen"
	"xrefine/internal/index"
)

// TestResidentBytesPerPosting is the posting-storage memory ratchet: on the
// scale-0.5 DBLP corpus the resident index may cost no more per posting
// than the ceiling recorded in scripts/mem_floor.txt. The ceiling sits a
// little above the measured figure, so this trips on a real regression — a
// codec change that bloats blocks, a skip-table field that grew — not on
// corpus noise. Lower the ceiling when the encoding improves; never raise
// it to make a change pass.
func TestResidentBytesPerPosting(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the scale-0.5 corpus")
	}
	raw, err := os.ReadFile("../../scripts/mem_floor.txt")
	if err != nil {
		t.Fatal(err)
	}
	ceiling, err := strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
	if err != nil {
		t.Fatalf("scripts/mem_floor.txt: %v", err)
	}
	// Scale 0.5 of the 2000-author corpus the experiments and bench/ use.
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	postings := 0
	for _, term := range ix.Vocabulary() {
		postings += ix.ListLen(term)
	}
	perPosting := float64(ix.ResidentBytes()) / float64(postings)
	t.Logf("resident index: %.2f B/posting over %d postings (ceiling %.1f)", perPosting, postings, ceiling)
	if perPosting > ceiling {
		t.Errorf("resident postings cost %.2f B each, above the %.1f B ceiling: the block codec regressed; check blockWriter and the skip table",
			perPosting, ceiling)
	}
}
