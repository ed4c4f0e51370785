//go:build race

package index_test

// The race detector makes sync.Pool drop items at random, so allocation
// counts that rely on pooled cursor scratch do not hold under it.
func init() { raceEnabled = true }
