//go:build race

package server

// The race detector makes sync.Pool drop items at random, so the bytes a
// request allocates through pooled buffers vary from run to run.
func init() { raceEnabled = true }
