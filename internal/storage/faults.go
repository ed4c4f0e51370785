package storage

import (
	"errors"
	"math"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every error produced by an armed failpoint.
// Callers asserting on fault-injection outcomes test with errors.Is.
var ErrInjected = errors.New("storage: injected fault")

// Faults is a fault-injection harness for the storage engine's IO layer:
// the B+tree pager (internal/kvstore) routes every page read and write
// through it. One Faults value drives one store; all counters and
// triggers are safe for concurrent use, matching the engine's
// concurrent-reader contract.
//
// Failpoints count down: FailReads(3) lets two reads through and fails the
// third and every read after it, until Clear. Torn writes are different —
// the nth write persists only the first half of its payload and then
// reports success, exactly the silent half-write a crash mid-commit leaves
// behind; the corruption must be caught later by the page CRC, not by the
// writer.
//
// Alongside the deterministic failpoints there are probabilistic per-op
// modes for soak-style chaos: SetErrorRate makes every read and write fail
// independently with probability p (a "flaky disk"), and SetJitter adds a
// uniformly random latency from a range to every operation (a "slow,
// erratic disk"). Both draw from a seeded lock-free xorshift generator, so
// a run is reproducible given the same seed and operation order.
type Faults struct {
	// ReadLatency and WriteLatency are added to every read/write — the
	// "slow disk" failpoint. Set before use; not synchronized.
	ReadLatency  time.Duration
	WriteLatency time.Duration

	failRead  atomic.Int64 // countdown; 0 = disarmed
	failWrite atomic.Int64
	tornWrite atomic.Int64

	errorRate atomic.Uint64 // math.Float64bits of p; 0 = disarmed
	jitterMin atomic.Int64  // ns
	jitterMax atomic.Int64  // ns; 0 = disarmed
	rng       atomic.Uint64 // xorshift64 state; 0 = unseeded

	reads    atomic.Int64
	writes   atomic.Int64
	injected atomic.Int64
}

// FailReads arms the read failpoint: the nth read from now (1 = the very
// next) and every read after it fail with ErrInjected.
func (f *Faults) FailReads(n int64) { f.failRead.Store(n) }

// FailWrites arms the write failpoint symmetrically to FailReads.
func (f *Faults) FailWrites(n int64) { f.failWrite.Store(n) }

// TornWrite arms the torn-write failpoint: the nth write from now persists
// only the first half of its payload and reports success.
func (f *Faults) TornWrite(n int64) { f.tornWrite.Store(n) }

// SetErrorRate arms the probabilistic failpoint: every read and write
// independently fails with ErrInjected with probability p in [0, 1]. A
// flaky replica is one flag: p = 0.05 makes one IO in twenty fail while
// the rest proceed normally. 0 disarms.
func (f *Faults) SetErrorRate(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	f.errorRate.Store(math.Float64bits(p))
}

// SetJitter arms the latency-jitter failpoint: every read and write sleeps
// an extra uniformly random duration in [min, max], on top of any fixed
// ReadLatency/WriteLatency. SetJitter(0, 0) disarms.
func (f *Faults) SetJitter(min, max time.Duration) {
	if min < 0 {
		min = 0
	}
	if max < min {
		max = min
	}
	f.jitterMin.Store(int64(min))
	f.jitterMax.Store(int64(max))
}

// Seed fixes the probabilistic modes' random stream. Unseeded Faults use a
// fixed default, so two identical runs inject identically.
func (f *Faults) Seed(seed uint64) {
	if seed == 0 {
		seed = defaultFaultSeed
	}
	f.rng.Store(seed)
}

// Clear disarms every failpoint, deterministic and probabilistic; latency
// fields are left as set.
func (f *Faults) Clear() {
	f.failRead.Store(0)
	f.failWrite.Store(0)
	f.tornWrite.Store(0)
	f.errorRate.Store(0)
	f.jitterMin.Store(0)
	f.jitterMax.Store(0)
}

// Reads returns the number of reads that reached the engine's IO layer.
func (f *Faults) Reads() int64 { return f.reads.Load() }

// Writes returns the number of writes that reached the engine's IO layer.
func (f *Faults) Writes() int64 { return f.writes.Load() }

// Injected returns the number of operations a failpoint disrupted
// (failed reads/writes and torn writes).
func (f *Faults) Injected() int64 { return f.injected.Load() }

// OnRead is the engine-side read hook: it applies the armed latency and
// jitter, counts the operation, and returns ErrInjected when the read
// failpoint (deterministic or probabilistic) fires. Engines call it before
// every IO-layer read and wrap the returned error with their own context.
func (f *Faults) OnRead() error {
	if f.ReadLatency > 0 {
		time.Sleep(f.ReadLatency)
	}
	f.jitter()
	f.reads.Add(1)
	if fire(&f.failRead) || f.flaky() {
		f.injected.Add(1)
		return ErrInjected
	}
	return nil
}

// OnWrite is the engine-side write hook: it applies the armed latency and
// jitter, counts the operation, and returns the bytes the engine should
// persist. A failed write returns ErrInjected. A torn write returns only
// the first half of data with a nil error — the engine must persist that
// prefix and report success to its caller, modeling the silent half-write
// a crash leaves behind. Tearing is one-shot; later writes heal.
func (f *Faults) OnWrite(data []byte) ([]byte, error) {
	if f.WriteLatency > 0 {
		time.Sleep(f.WriteLatency)
	}
	f.jitter()
	f.writes.Add(1)
	if fire(&f.failWrite) || f.flaky() {
		f.injected.Add(1)
		return nil, ErrInjected
	}
	if fire(&f.tornWrite) {
		f.injected.Add(1)
		f.tornWrite.Store(0) // tearing is one-shot; later writes heal
		return data[:len(data)/2], nil
	}
	return data, nil
}

// defaultFaultSeed is the xorshift state of unseeded Faults — any odd
// 64-bit constant with good bit mixing works.
const defaultFaultSeed = 0x9E3779B97F4A7C15

// next64 draws the next value of the lock-free xorshift64 stream.
func (f *Faults) next64() uint64 {
	for {
		old := f.rng.Load()
		x := old
		if x == 0 {
			x = defaultFaultSeed
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if f.rng.CompareAndSwap(old, x) {
			return x
		}
	}
}

// chance reports true with probability p.
func (f *Faults) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	// Top 53 bits give a uniform float in [0, 1).
	return float64(f.next64()>>11)/(1<<53) < p
}

// jitter sleeps the armed random latency, if any.
func (f *Faults) jitter() {
	max := f.jitterMax.Load()
	if max <= 0 {
		return
	}
	min := f.jitterMin.Load()
	d := min
	if span := max - min; span > 0 {
		d += int64(f.next64() % uint64(span+1))
	}
	time.Sleep(time.Duration(d))
}

// flaky reports whether the probabilistic error failpoint fires for this
// operation.
func (f *Faults) flaky() bool {
	bits := f.errorRate.Load()
	if bits == 0 {
		return false
	}
	return f.chance(math.Float64frombits(bits))
}

// fire decrements a countdown and reports whether the failpoint triggers
// for this operation. A countdown at 1 trips and stays tripped (sticky);
// 0 means disarmed.
func fire(c *atomic.Int64) bool {
	for {
		v := c.Load()
		switch {
		case v == 0:
			return false
		case v == 1:
			return true // sticky: keep failing until Clear
		case c.CompareAndSwap(v, v-1):
			return false
		}
	}
}
