package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzWireFrame fuzzes the framing layer with arbitrary byte streams:
// truncated frames, oversized length prefixes, and garbage must all
// surface as typed errors — never a panic, and never an allocation
// sized by an attacker-controlled prefix (ReadFrame rejects prefixes
// over max before allocating). Whatever frames do parse are fed to the
// request decoder, which must hold the same bar.
func FuzzWireFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendControl(nil, OpPing, 0))
	f.Add(AppendControl(nil, OpHello, 7))
	f.Add(AppendRequest(nil, 42, 0, 3, 0, []string{"db"}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                   // 4 GiB prefix
	f.Add([]byte{0x00, 0x10, 0x00, 0x00})                   // prefix just over max
	f.Add([]byte{0x00, 0x00, 0x00, 0x10, Version, OpQuery}) // truncated payload
	twoFrames := AppendControl(nil, OpPing, 0)
	f.Add(AppendRequest(twoFrames, 1, 1, 5, 2, []string{"xml", "query"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		var buf []byte
		var req Request
		for frames := 0; frames < 8; frames++ {
			var payload []byte
			var err error
			buf, payload, err = ReadFrame(rd, buf, MaxRequestFrame)
			if err != nil {
				if !errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrTruncated) &&
					!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("untyped framing error: %v", err)
				}
				return
			}
			if want := binary.BigEndian.Uint32(data[len(data)-rd.Len()-len(payload)-4:]); int(want) != len(payload) {
				t.Fatalf("payload %d bytes under a %d prefix", len(payload), want)
			}
			if err := req.Decode(payload); err != nil &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped decode error: %v", err)
			}
		}
	})
}

// FuzzWireRequest fuzzes the request codec: arbitrary payloads either
// decode into a request that survives an encode/decode round trip
// unchanged, or fail with one of the protocol's typed errors.
func FuzzWireRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendControl(nil, OpPing, 0)[4:])
	f.Add(AppendControl(nil, OpHello, 99)[4:])
	f.Add(AppendRequest(nil, 7, 2, 10, 4, []string{"database", "query"})[4:])
	f.Add(AppendRequest(nil, 0, 0, 0, 0, []string{"a"})[4:])
	f.Add(append([]byte{99}, AppendControl(nil, OpPing, 0)[5:]...))        // future version
	f.Add(append(AppendRequest(nil, 0, 0, 1, 0, []string{"a"})[4:], 0xff)) // trailing byte
	f.Fuzz(func(t *testing.T, payload []byte) {
		var r Request
		err := r.Decode(payload)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if len(r.Terms) > len(payload) {
			t.Fatalf("%d terms decoded from %d bytes", len(r.Terms), len(payload))
		}
		// Round trip. Flags are reserved and not re-encoded; everything
		// else must survive exactly.
		var frame []byte
		if r.Op == OpQuery {
			terms := make([]string, len(r.Terms))
			for i, b := range r.Terms {
				terms[i] = string(b)
			}
			frame = AppendRequest(nil, r.Trace, 0, r.K, r.Parallel, terms)
		} else {
			frame = AppendControl(nil, r.Op, r.Trace)
		}
		op, trace, k, par := r.Op, r.Trace, r.K, r.Parallel
		nterms := len(r.Terms)
		var r2 Request
		if err := r2.Decode(frame[4:]); err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if r2.Op != op || r2.Trace != trace || r2.K != k || r2.Parallel != par || len(r2.Terms) != nterms {
			t.Fatalf("round trip changed the request: %+v vs op=%d trace=%d k=%d par=%d nterms=%d",
				r2, op, trace, k, par, nterms)
		}
		for i := range r2.Terms {
			if !bytes.Equal(r2.Terms[i], r.Terms[i]) {
				t.Fatalf("term %d changed in round trip: %q vs %q", i, r2.Terms[i], r.Terms[i])
			}
		}
	})
}
