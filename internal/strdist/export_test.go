package strdist

// Walk and RunWalk let the external tests run a lookup on a walk of their
// own: an allocation count through Within would depend on what sync.Pool
// kept, and under the race detector the pool drops some of what it is
// given.
type Walk = walk

var RunWalk = (*walk).run
