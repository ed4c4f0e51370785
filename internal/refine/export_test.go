package refine

// ScanSLCACalls reports the SLCA computations scan s ran itself. A merged
// walk's SLCACalls beyond the sum over its scans are the ones the merge's
// replay recomputed.
func ScanSLCACalls(s *Scan) int { return s.slcaCalls }
