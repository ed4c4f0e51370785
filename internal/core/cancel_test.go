package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"xrefine/internal/datagen"
	"xrefine/internal/kvstore"
	"xrefine/internal/storage"
	"xrefine/internal/testutil"
)

// TestCancelPromptAtEveryStage cancels a slow query mid-flight and
// requires a prompt return at every pipeline stage: the lazy index loads
// (made slow by injected read latency), the partition walk, and the SLCA
// computations it delegates to. Run under -race this also proves the
// cooperative aborts do not race with the index singleflight. The
// "-parallel" rows set the retired Config.Parallelism, which the benchmark
// in bench/ still sets: it must change nothing, cancellation included.
//
// Each "load-*" stage opens a fresh engine whose first query pays the
// lazily-loaded posting lists through a pager with injected latency, so
// the cancel lands during index IO; each "walk-*" stage warms the lists
// first, so the cancel lands in pure compute. A stage passes when the
// query returns within the grace window with either a complete response
// (the race was lost — fine) or context.Canceled; anything else — a hang,
// a different error, a panic — fails.
func TestCancelPromptAtEveryStage(t *testing.T) {
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	builder := NewFromDocument(doc, nil)
	faults := &storage.Faults{}
	store := kvstore.NewMemWithFaults(faults)
	defer store.Close()
	if err := builder.SaveIndex(store); err != nil {
		t.Fatal(err)
	}
	// Every page read now costs 0.5ms, so list loads dominate the cold
	// queries and the 3ms cancel below lands mid-load.
	faults.ReadLatency = 500 * time.Microsecond

	terms := []string{"database", "query", "xml"}
	stages := []struct {
		name string
		cfg  *Config
		warm bool
	}{
		{"load-partition-seq", &Config{Parallelism: 1}, false},
		{"load-partition-parallel", &Config{Parallelism: 4}, false},
		{"walk-partition-seq", &Config{Parallelism: 1}, true},
		{"walk-partition-parallel", &Config{Parallelism: 4}, true},
	}
	for _, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			store.DropCaches()
			eng, err := Open(store, st.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.warm {
				if _, err := queryTerms(eng, terms, 3); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			// Cancel only after the query has observably started (the
			// query counter bumps at QueryTermsCtx entry): a fixed sleep
			// here raced the goroutine on loaded machines, cancelling
			// before the query began and asserting nothing.
			base := counter(eng, "xrefine_engine_queries_total")
			go func() {
				_, err := eng.QueryTermsCtx(ctx, terms, StrategyPartition, 3, 0)
				done <- err
			}()
			testutil.Eventually(t, 5*time.Second, func() bool {
				return counter(eng, "xrefine_engine_queries_total") > base
			}, "query goroutine never started")
			cancel()
			select {
			case err := <-done:
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want nil or context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("query did not return within 5s of cancellation")
			}
		})
	}
}
