// Package backends opens storage.Backend values by engine kind. It keeps
// internal/storage a dependency-free leaf that the engine (and every
// consumer) can import.
package backends

import (
	"fmt"
	"os"

	"xrefine/internal/kvstore"
	"xrefine/internal/storage"
)

// Open opens (creating if writable and absent) the B+tree store file at
// path. A directory at path is a store of the retired log-structured
// engine and fails with storage.ErrUnsupportedFormat: it is rebuilt from
// its source XML.
func Open(kind storage.Kind, path string, opts *storage.Options) (storage.Backend, error) {
	if kind != storage.KindBTree {
		return nil, &storage.UnknownKindError{Value: string(kind)}
	}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return nil, fmt.Errorf("storage: %s is a directory, a log-structured store: %w", path, storage.ErrUnsupportedFormat)
	}
	var o storage.Options
	if opts != nil {
		o = *opts
	}
	return kvstore.Open(path, &kvstore.Options{
		ReadOnly:  o.ReadOnly,
		CacheSize: o.CacheSize,
		Faults:    o.Faults,
	})
}
