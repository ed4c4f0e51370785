package kvstore

import (
	"fmt"

	"xrefine/internal/storage"
)

// faultPager applies an armed Faults to every operation of the wrapped
// pager: reads and writes go through the harness hooks, which add latency,
// count the operation, and decide whether to fail or tear it.
type faultPager struct {
	inner pager
	f     *storage.Faults
}

func (p *faultPager) read(id uint32) ([]byte, error) {
	if err := p.f.OnRead(); err != nil {
		return nil, fmt.Errorf("kvstore: read page %d: %w", id, err)
	}
	return p.inner.read(id)
}

func (p *faultPager) write(id uint32, data []byte) error {
	out, err := p.f.OnWrite(data)
	if err != nil {
		return fmt.Errorf("kvstore: write page %d: %w", id, err)
	}
	if len(out) != len(data) {
		// Torn write: persist the surviving prefix zero-padded to the full
		// page length and report success — silent corruption for the page
		// CRC to catch on a later read, never an error here.
		torn := make([]byte, len(data))
		copy(torn, out)
		return p.inner.write(id, torn)
	}
	return p.inner.write(id, data)
}

func (p *faultPager) sync() error  { return p.inner.sync() }
func (p *faultPager) close() error { return p.inner.close() }
