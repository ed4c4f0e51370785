package shard

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/storage"
)

// Replica health states, as surfaced on /healthz and in ReplicaStatus. The
// definitions live in core so the HTTP server can type its replica table
// without importing this package; these names are the router-side view.
const (
	// StateHealthy: the replica serves reads and accepts routed writes.
	StateHealthy = core.ReplicaHealthy
	// StateBreakerOpen: consecutive scan errors tripped the circuit
	// breaker; the replica is held out of primary read selection until the
	// cooldown expires (it may still be probed half-open when no healthy
	// replica remains). Writes still route to it — the breaker is a read
	// availability device, not a consistency one.
	StateBreakerOpen = core.ReplicaBreakerOpen
	// StateQuarantined: the replica's epoch lags its group (a routed write
	// failed on it, or it was behind when the router opened). It serves no
	// reads — a stale epoch would break the byte-identity guarantee — until
	// epoch reconciliation copies a caught-up sibling's committed store into
	// its own and it rejoins. On a read-only router its store cannot be
	// written, so it stays quarantined.
	StateQuarantined = core.ReplicaQuarantined
)

// ReplicaStatus is one row of the /healthz replica table.
type ReplicaStatus = core.ReplicaStatus

// replica is one copy of a shard: its own engine, store and epoch,
// plus the health state read selection consults. Readers load eng without
// a lock; reconciliation swaps in an engine reopened over the copied store.
type replica struct {
	shard, id int
	eng       atomic.Pointer[core.Engine]
	store     storage.Backend
	faults    *storage.Faults // non-nil when chaos is armed on this store

	ewmaNS       atomic.Int64  // EWMA scan latency; 0 = no sample yet
	consecErrs   atomic.Int32  // consecutive scan errors
	breakerUntil atomic.Int64  // unixnano the breaker stays open until; 0 = closed
	quarantined  atomic.Bool   // epoch-lagged: excluded from reads
	trips        atomic.Uint64 // breaker openings, cumulative
}

// breakerOpen reports whether the circuit breaker currently holds the
// replica out of primary read selection.
func (rp *replica) breakerOpen(now int64) bool {
	until := rp.breakerUntil.Load()
	return until != 0 && now < until
}

// state names the replica's current health state.
func (rp *replica) state(now int64) string {
	switch {
	case rp.quarantined.Load():
		return StateQuarantined
	case rp.breakerOpen(now):
		return StateBreakerOpen
	default:
		return StateHealthy
	}
}

// noteSuccess records a successful scan: latency feeds the EWMA (alpha
// 1/4) and the error streak and breaker reset.
func (rp *replica) noteSuccess(d time.Duration) {
	for {
		old := rp.ewmaNS.Load()
		ewma := int64(d)
		if old != 0 {
			ewma = old + (int64(d)-old)/4
		}
		if rp.ewmaNS.CompareAndSwap(old, ewma) {
			break
		}
	}
	rp.consecErrs.Store(0)
	rp.breakerUntil.Store(0)
}

// noteError records a failed scan; breakerThreshold consecutive errors
// open the breaker for breakerCooldown. Reports whether this call tripped
// it.
func (rp *replica) noteError() bool {
	n := rp.consecErrs.Add(1)
	if int(n) < breakerThreshold {
		return false
	}
	until := time.Now().Add(breakerCooldown).UnixNano()
	if rp.breakerUntil.Swap(until) == 0 {
		rp.trips.Add(1)
		return true
	}
	return false
}

// replicaGroup is the replica set of one shard.
type replicaGroup struct {
	shard int
	reps  []*replica
}

// primary returns the replica whose index backs the merged meta state and
// whose epoch is the shard's published epoch: the first non-quarantined
// replica, falling back to replica 0 when every copy is quarantined (a
// state routed writes cannot normally reach — a write that fails
// everywhere advances no epoch and quarantines nothing).
func (g *replicaGroup) primary() *replica {
	for _, rp := range g.reps {
		if !rp.quarantined.Load() {
			return rp
		}
	}
	return g.reps[0]
}

// maxEpoch returns the highest epoch across the group — the epoch a
// fully-caught-up replica must hold.
func (g *replicaGroup) maxEpoch() uint64 {
	var max uint64
	for _, rp := range g.reps {
		if e := rp.eng.Load().Epoch(); e > max {
			max = e
		}
	}
	return max
}

// readOrder returns the replicas eligible to serve a scan, best first:
// healthy replicas by ascending EWMA latency (unsampled replicas first, so
// a fresh copy gets measured), then breaker-open replicas as half-open
// fallbacks. Quarantined replicas never appear — correctness beats
// availability. Ties break on replica id, keeping selection deterministic.
func (g *replicaGroup) readOrder() []*replica {
	now := time.Now().UnixNano()
	var healthy, opened []*replica
	for _, rp := range g.reps {
		switch {
		case rp.quarantined.Load():
		case rp.breakerOpen(now):
			opened = append(opened, rp)
		default:
			healthy = append(healthy, rp)
		}
	}
	sort.SliceStable(healthy, func(i, j int) bool {
		a, b := healthy[i].ewmaNS.Load(), healthy[j].ewmaNS.Load()
		if a != b {
			return a < b
		}
		return healthy[i].id < healthy[j].id
	})
	return append(healthy, opened...)
}

// statuses renders the group as /healthz replica-table rows.
func (g *replicaGroup) statuses() []ReplicaStatus {
	now := time.Now().UnixNano()
	max := g.maxEpoch()
	out := make([]ReplicaStatus, 0, len(g.reps))
	for _, rp := range g.reps {
		e := rp.eng.Load().Epoch()
		var lag uint64
		if e < max {
			lag = max - e
		}
		out = append(out, ReplicaStatus{
			Shard:             g.shard,
			Replica:           rp.id,
			State:             rp.state(now),
			Epoch:             e,
			EpochLag:          lag,
			EWMAMillis:        float64(rp.ewmaNS.Load()) / 1e6,
			ConsecutiveErrors: int(rp.consecErrs.Load()),
			BreakerTrips:      rp.trips.Load(),
		})
	}
	return out
}

// Chaos is the probabilistic fault profile -chaos arms on every replica
// store: each page read/write independently fails with probability Rate
// and sleeps a uniform random latency in [JitterMin, JitterMax]. Distinct
// replicas draw from seeds derived from Seed, so a soak run is
// reproducible but replicas do not fail in lockstep.
type Chaos struct {
	Rate      float64
	JitterMin time.Duration
	JitterMax time.Duration
	Seed      uint64
}

// ParseChaos parses a -chaos flag value: comma-separated key=value pairs
// with keys rate (probability), jitter (a duration or min-max range), and
// seed. Examples: "rate=0.01", "jitter=1ms-5ms", "rate=0.005,jitter=2ms".
func ParseChaos(s string) (*Chaos, error) {
	c := &Chaos{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("shard: chaos: %q is not key=value", part)
		}
		switch key {
		case "rate":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("shard: chaos: rate %q not in [0,1]", val)
			}
			c.Rate = p
		case "jitter":
			lo, hi, isRange := strings.Cut(val, "-")
			max, err := time.ParseDuration(strings.TrimSpace(hi))
			if !isRange {
				max, err = time.ParseDuration(strings.TrimSpace(lo))
			}
			if err != nil {
				return nil, fmt.Errorf("shard: chaos: jitter %q: %v", val, err)
			}
			var min time.Duration
			if isRange {
				min, err = time.ParseDuration(strings.TrimSpace(lo))
				if err != nil {
					return nil, fmt.Errorf("shard: chaos: jitter %q: %v", val, err)
				}
			}
			if min < 0 || max < min {
				return nil, fmt.Errorf("shard: chaos: jitter range %q inverted", val)
			}
			c.JitterMin, c.JitterMax = min, max
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("shard: chaos: seed %q: %v", val, err)
			}
			c.Seed = n
		default:
			return nil, fmt.Errorf("shard: chaos: unknown key %q (want rate, jitter, seed)", key)
		}
	}
	if c.Rate == 0 && c.JitterMax == 0 {
		return nil, fmt.Errorf("shard: chaos: %q arms nothing (set rate= and/or jitter=)", s)
	}
	return c, nil
}

// arm applies the chaos spec to one replica's already-attached fault set.
// The injector is attached disarmed at store-open time and armed only here,
// after the initial index load: chaos models serving-time flakiness, and an
// injected fault during boot would reject a perfectly healthy store.
func (c *Chaos) arm(f *storage.Faults, shard, replica int) {
	if c == nil || f == nil {
		return
	}
	f.SetErrorRate(c.Rate)
	f.SetJitter(c.JitterMin, c.JitterMax)
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	// Mix shard/replica into the seed so copies do not fail in lockstep.
	f.Seed(seed*2654435761 + uint64(shard)*131 + uint64(replica) + 1)
}
