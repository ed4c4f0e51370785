package shard

import (
	"context"
	"testing"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/obs"
	"xrefine/internal/storage"
)

// collectShardSpans walks a span tree and returns every span whose name
// starts with "shard-", recording the nesting depth relative to the
// partition span so the test can prove losers are siblings of winners.
func collectShardSpans(d *obs.SpanData, depth int, out *[]*obs.SpanData, depths *[]int) {
	if d == nil {
		return
	}
	if len(d.Name) >= 6 && d.Name[:6] == "shard-" {
		*out = append(*out, d)
		*depths = append(*depths, depth)
	}
	for _, c := range d.Children {
		collectShardSpans(c, depth+1, out, depths)
	}
}

// TestHedgedLoserTracePropagation pins the flight-recorder contract for
// hedged fan-out: the hedge fire, the hedge win, and the loser's
// cancellation all carry the request's trace ID, and the loser's span is
// a sibling of the winner under the partition span — never nested inside
// the winner's subtree. Runs under -race in CI: the loser finishes
// asynchronously after the query returns, so the test polls the event
// ring for its terminal event before snapshotting the span tree.
func TestHedgedLoserTracePropagation(t *testing.T) {
	faults := [][]*storage.Faults{{{}, nil}}
	r := memReplicatedRouter(t, 32, 5, 1, 2, &Options{HedgeAfter: 50 * time.Microsecond}, faults)
	// Arm after construction so only query-time reads pay the latency.
	faults[0][0].ReadLatency = 3 * time.Millisecond
	r.groups[0].reps[0].store.DropCaches()

	terms := []string{"database", "query"}
	deadline := time.Now().Add(10 * time.Second)
	for attempt := 0; ; attempt++ {
		if time.Now().After(deadline) {
			t.Fatal("no query produced a hedge win against a 3ms replica with a 50µs hedge delay")
		}
		ri := obs.NewReqInfo()
		ri.Sampled = true
		ctx := obs.WithReqInfo(context.Background(), ri)
		ctx, root := obs.NewTrace(ctx, "query")

		if _, err := r.QueryTermsCtx(ctx, terms, core.StrategyPartition, 3, 2); err != nil {
			t.Fatalf("query %d: %v", attempt, err)
		}

		// The loser unwinds after the winner returns; wait until every
		// launched attempt for this trace has recorded a terminal event
		// (its span is Ended before the event is recorded, so the tree
		// is quiescent once the counts match).
		evs := waitAttemptsSettled(t, r, ri.Trace)

		var fires, wins, cancels int
		winnerReplica, loserReplica := -1, -1
		for _, e := range evs {
			if e.Trace != ri.Trace {
				t.Fatalf("event %+v leaked into trace %s's event set", e, ri.Trace)
			}
			switch e.Kind {
			case obs.EvHedgeFire:
				fires++
			case obs.EvHedgeWin:
				wins++
				winnerReplica = e.Replica
			case obs.EvAttemptCancel:
				cancels++
				loserReplica = e.Replica
			}
		}
		if wins == 0 {
			// Primary beat the hedge this round (scheduler noise, or the
			// read order already demoted the slow replica). Retry.
			root.End()
			root.Release()
			continue
		}
		if fires == 0 {
			t.Fatal("hedge win recorded without a hedge-fire event")
		}
		if cancels == 0 {
			t.Fatalf("hedge won on replica %d but the loser recorded no attempt-cancel; events: %+v",
				winnerReplica, evs)
		}
		if loserReplica == winnerReplica {
			t.Fatalf("loser and winner both report replica %d", winnerReplica)
		}

		root.End()
		data := root.Data()
		root.Release()

		var partition *obs.SpanData
		for _, c := range data.Children {
			if c.Name == "refine:partition" {
				partition = c
			}
		}
		if partition == nil {
			t.Fatalf("sampled trace has no refine:partition span; tree: %+v", data)
		}
		var shardSpans []*obs.SpanData
		var depths []int
		collectShardSpans(partition, 0, &shardSpans, &depths)
		if len(shardSpans) != 2 {
			t.Fatalf("want 2 shard-0 attempt spans (winner+loser), got %d", len(shardSpans))
		}
		sawLoser := false
		for i, sp := range shardSpans {
			if depths[i] != 1 {
				t.Errorf("span %q at depth %d under refine:partition; attempts must be"+
					" siblings, never nested inside the winner", sp.Name, depths[i])
			}
			rep, _ := sp.Attrs["replica"].(int64)
			if int(rep) == loserReplica {
				sawLoser = true
				if _, ok := sp.Attrs["error"]; !ok {
					t.Errorf("loser span (replica %d) has no error attr: %+v", loserReplica, sp.Attrs)
				}
			}
		}
		if !sawLoser {
			t.Errorf("no span for cancelled replica %d in the tree", loserReplica)
		}
		return
	}
}

// waitAttemptsSettled polls the router's event ring until every
// attempt-start recorded for trace id has a matching terminal event
// (attempt-end or attempt-cancel), then returns the trace's events.
func waitAttemptsSettled(t *testing.T, r *Router, id obs.TraceID) []obs.Event {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		evs := r.flight.Events(obs.EventFilter{Trace: id})
		starts, terms := 0, 0
		for _, e := range evs {
			switch e.Kind {
			case obs.EvAttemptStart:
				starts++
			case obs.EvAttemptEnd, obs.EvAttemptCancel:
				terms++
			}
		}
		if starts > 0 && terms >= starts {
			return evs
		}
		if time.Now().After(deadline) {
			t.Fatalf("attempts never settled for trace %s: %d starts, %d terminal; events: %+v",
				id, starts, terms, evs)
		}
		time.Sleep(time.Millisecond)
	}
}
