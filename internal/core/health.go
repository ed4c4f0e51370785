package core

import "xrefine/internal/storage"

// Replica health states, as surfaced on /healthz. They live in core (the
// package every serving layer already depends on) so the HTTP server can
// type its replica table without importing the shard router.
const (
	// ReplicaHealthy: the replica serves reads and accepts routed writes.
	ReplicaHealthy = "healthy"
	// ReplicaBreakerOpen: consecutive scan errors tripped the circuit
	// breaker; the replica is held out of primary read selection until the
	// cooldown expires. Writes still route to it — the breaker is a read
	// availability device, not a consistency one.
	ReplicaBreakerOpen = "breaker-open"
	// ReplicaQuarantined: the replica's epoch lags its group (a routed
	// write failed on it). It serves no reads until epoch reconciliation
	// copies a caught-up sibling's committed store into its own and it
	// rejoins; on a read-only router it stays quarantined.
	ReplicaQuarantined = "quarantined"
)

// ReplicaStatus is one row of the /healthz replica table: the health of
// one replica of one shard.
type ReplicaStatus struct {
	Shard             int     `json:"shard"`
	Replica           int     `json:"replica"`
	State             string  `json:"state"`
	Epoch             uint64  `json:"epoch"`
	EpochLag          uint64  `json:"epoch_lag"`
	EWMAMillis        float64 `json:"ewma_ms"`
	ConsecutiveErrors int     `json:"consecutive_errors"`
	BreakerTrips      uint64  `json:"breaker_trips"`
}

// HealthExtras is the backend-specific part of /healthz: the configured
// worker bound, plus what only some deployments have — each backend fills
// in what it has and leaves the rest nil.
type HealthExtras struct {
	// Parallelism is the configured partition-walk worker bound.
	Parallelism int
	// ShardEpochs is every shard's current epoch, in shard order; nil on a
	// single engine.
	ShardEpochs []uint64
	// Replicas is one health row per replica, in shard then replica order;
	// nil on a single engine.
	Replicas []ReplicaStatus
	// Storage is the backing store's storage-engine snapshot; nil for a
	// purely in-memory engine.
	Storage *storage.Stats
}
