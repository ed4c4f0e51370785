package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// A value of any length is stored as chunks: a first cell under its key,
// then continuation cells under key+"\x00"+<seq BE32>, seq counting from 0.
// Every cell is filled so that its key plus its value is exactly MaxKV,
// except the last. Continuation keys sort right after their key and before
// any key that extends it by a nonzero byte, so one Range over
// [key, key+"\x01") reads a value back in order. A stored key that extends
// a chunked key by a zero byte is one of its continuations: callers keep
// such keys out of their own layouts.
//
// The reader joins the cell under the key, when there is one, with its
// continuations, so a value written as continuation cells only reads back
// as their concatenation.

// contKeyLen is what a continuation key adds to its key: the zero byte and
// the big-endian sequence number.
const contKeyLen = 5

// KeyTooLongError reports a key that leaves no room for even one byte of
// value in a continuation cell.
type KeyTooLongError struct {
	// Len is the key's length; MaxKV the store's key+value bound.
	Len, MaxKV int
}

func (e *KeyTooLongError) Error() string {
	return fmt.Sprintf("storage: key of %d bytes leaves no room for a value under the %d-byte cell bound", e.Len, e.MaxKV)
}

// PutChunked stages value under key, split into as many cells as the
// store's bound needs. Continuation cells a previous, longer value left
// behind are deleted first.
func PutChunked(s Backend, key, value []byte) error {
	first := s.MaxKV() - len(key)
	room := first - contKeyLen
	if room < 1 {
		return &KeyTooLongError{Len: len(key), MaxKV: s.MaxKV()}
	}
	cont := append(key[:len(key):len(key)], 0)
	if _, err := s.DeleteRange(cont, chunkEnd(key)); err != nil {
		return err
	}
	end := min(len(value), first)
	if err := s.Put(key, value[:end]); err != nil {
		return err
	}
	for seq := uint32(0); end < len(value); seq++ {
		off := end
		end = min(off+room, len(value))
		if err := s.Put(binary.BigEndian.AppendUint32(cont[:len(cont):len(cont)], seq), value[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// GetChunked returns the value PutChunked stored under key: the cell under
// key, if any, joined with its continuation cells. ok is false when
// neither exists.
func GetChunked(s Backend, key []byte) (value []byte, ok bool, err error) {
	err = s.Range(key, chunkEnd(key), func(_, v []byte) bool {
		value = append(value, v...)
		ok = true
		return true
	})
	if err != nil {
		return nil, false, err
	}
	return value, ok, nil
}

// DeleteChunked stages the removal of key's cell and every continuation
// cell of it.
func DeleteChunked(s Backend, key []byte) error {
	_, err := s.DeleteRange(key, chunkEnd(key))
	return err
}

// RangeChunked calls fn once for every chunked value whose key lies in
// [lo, hi), in key order, with the value joined from its cells. A
// continuation cell is folded into the key before it; the key and value
// passed to fn are only valid during the call. Iteration stops when fn
// returns false.
func RangeChunked(s Backend, lo, hi []byte, fn func(key, value []byte) bool) error {
	var key, value []byte
	more := true
	err := s.Range(lo, hi, func(k, v []byte) bool {
		if key != nil && len(k) == len(key)+contKeyLen && k[len(key)] == 0 && bytes.HasPrefix(k, key) {
			value = append(value, v...)
			return true
		}
		if key != nil && !fn(key, value) {
			more = false
			return false
		}
		key = append(key[:0], k...)
		value = append(value[:0], v...)
		return true
	})
	if err != nil || !more || key == nil {
		return err
	}
	fn(key, value)
	return nil
}

// chunkEnd returns key+"\x01", the first key past key's chunks.
func chunkEnd(key []byte) []byte {
	return append(key[:len(key):len(key)], 1)
}
