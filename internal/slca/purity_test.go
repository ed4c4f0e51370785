package slca

import (
	"strings"
	"sync"
	"testing"

	"xrefine/internal/dewey"
)

// TestAlgorithmsPureOverSharedLists runs scan-eager from many goroutines
// over the same shared lists and checks each result against the
// single-threaded answer. Under -race this asserts the package-doc purity
// contract: the scan writes neither to its input lists nor to hidden
// shared state.
func TestAlgorithmsPureOverSharedLists(t *testing.T) {
	ix := buildIx(t, fig1)
	shared := postings(lists(t, ix, "xml", "online"))
	want := idsString(ScanEager(shared))
	const goroutines = 8
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if got := idsString(ScanEager(shared)); got != want {
					errs <- "got " + got + " want " + want
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func idsString(ids []dewey.ID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = id.String()
	}
	return strings.Join(parts, " ")
}
