package refine

// The walk's state, exposed to the external tests of the release contract.

// RetainBytes is the free list's cap on a retained state.
const RetainBytes = retainBytes

// StateOf returns the state an outcome lives in, nil once released.
func StateOf(o *TopKOutcome) *Scan { return o.st }

// Retained is s's buffer size as Release judges it.
func Retained(s *Scan) int { return s.retained() }

// Idle reports whether s sits in the free list.
func Idle(s *Scan) bool {
	freeScans.Lock()
	defer freeScans.Unlock()
	for _, f := range freeScans.scans {
		if f == s {
			return true
		}
	}
	return false
}
