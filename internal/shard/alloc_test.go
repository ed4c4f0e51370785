package shard

import (
	"context"
	"runtime"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/experiments"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// routerAllocCeiling bounds the mean allocations of one query on a
// two-shard range router at K=1 over the golden workload. Lower it as the
// router gets cheaper; never raise it.
const routerAllocCeiling = 186

// TestRouterQueryAllocs is the router's allocation ratchet: passes over
// the seed-909 Table-VIII workload on the golden corpus split into two
// range shards, after a warm pass has filled the lazily built state
// (judge memos, resident lists). Each response is released, as the
// servers release theirs once encoded. It measures at one P, as
// testing.AllocsPerRun expects: a sync.Pool item put back on one P is not
// found by a Get on another, which then allocates anew.
func TestRouterQueryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, err := experiments.DBLPCorpus(0.2)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 909, Queries: 30})
	if err != nil {
		t.Fatal(err)
	}
	r := memRouter(t, c.Doc, 2, ModeRange, &core.Config{DisableMetrics: true}, nil)
	query := func() {
		for _, cs := range batch {
			resp, err := r.QueryTermsCtx(context.Background(), cs.Corrupted, core.StrategyPartition, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			resp.Release()
		}
	}
	query()
	got := testing.AllocsPerRun(3, query) / float64(len(batch))
	t.Logf("%.1f allocations per router query, mean over %d queries", got, len(batch))
	if got > routerAllocCeiling {
		t.Errorf("a router query allocated %.0f times, ceiling %d", got, routerAllocCeiling)
	}
}
