//go:build race

package refine_test

// The race detector makes sync.Pool drop items at random, so the bytes a
// walk allocates through pooled cursor scratch vary from run to run.
func init() { raceEnabled = true }
