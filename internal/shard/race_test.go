//go:build race

package shard

// The race detector makes sync.Pool drop items at random, so the
// allocations of a query that reuses pooled scratch vary from run to run.
func init() { raceEnabled = true }
