// Package wire implements XRefine's binary serving protocol: a
// length-prefixed, RESP-style framed protocol over persistent TCP
// connections with pipelining, designed so the serving hot path —
// read frame → decode → Engine.QueryTermsCtx → encode → write — stays within
// the same ≤2-allocs-per-request envelope the engine's instrumentation
// guard already enforces.
//
// # Frame grammar
//
// Every frame is a 4-byte big-endian payload length followed by the
// payload. Request payloads are
//
//	version(1) opcode(1) flags(2, BE) trace_id(8, BE) body…
//
// and response payloads are
//
//	version(1) status(1) trace_id(8, BE) body…
//
// The version byte doubles as the feature-negotiation surface: a client
// opens with OpHello carrying the highest version it speaks, and the
// server answers with a JSON feature document under its own version byte.
// A server receiving a frame whose version it does not speak answers a
// StatusError frame (code 400) naming the versions it accepts; the
// connection stays open so the client can retry lower. Everything else —
// unknown opcode, malformed body — is also a StatusError frame. Framing
// violations (oversized length prefix, truncated frame) are answered with
// a final error frame where possible and then close the connection: once
// byte alignment is lost there is nothing left to resynchronize on.
//
// The trace_id field threads the flight recorder through the binary
// surface: a client may supply its own nonzero ID (distributed-trace
// style); zero asks the server to mint one. Responses echo the ID that
// was actually used, so a client can resolve /debug/trace/<id> and
// /debug/events?trace_id=<id> on the HTTP ops surface for any wire
// request.
//
// # Query semantics
//
// OpQuery carries pre-tokenized terms (clients normalize with
// tokenize.Query, exactly what the HTTP handler does to ?q=), a strategy
// byte, K and a reserved parallelism field that servers decode and ignore.
// The strategy byte is reserved too: only the partition strategy (0) is
// served, and any other value is refused. The success body is the /search
// JSON document, byte-for-byte: the two surfaces answer identically
// inside their envelopes, which is what the differential conformance
// suite asserts. StatusRetry is the binary equivalent of HTTP 503 +
// Retry-After: one hint byte (jittered seconds) then the message.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"xrefine/internal/obs"
	"xrefine/internal/server"
)

// Version is the protocol version this package speaks. Frames carrying
// any other version are rejected with ErrVersion.
const Version = 1

// Opcodes. Zero is deliberately invalid so an all-zero frame cannot be a
// well-formed request.
const (
	// OpHello negotiates: the body is empty, the response body is a JSON
	// document naming the server's version and features.
	OpHello = 0x01
	// OpQuery answers a keyword query; see Request.
	OpQuery = 0x02
	// OpPing answers with an empty StatusOK frame — liveness and RTT.
	OpPing = 0x03
)

// Response status bytes.
const (
	// StatusOK carries the operation's result body.
	StatusOK = 0x00
	// StatusError carries uint16 code + message; the code space mirrors
	// HTTP (400 bad request, 499 client cancelled, 500 internal).
	StatusError = 0x01
	// StatusRetry is the admission gate shedding load — HTTP 503 with a
	// Retry-After hint: one byte of jittered seconds, then the message.
	StatusRetry = 0x02
)

// Request flag bits (none are defined yet; the field reserves the room a
// future explain/compression negotiation needs without a version bump).
const flagsNone = 0

// Frame size limits. Requests are small — terms, not documents — so the
// request bound is tight and protects the server from adversarial length
// prefixes: the allocation happens only after the bound check, so a
// 4 GiB prefix costs the attacker a closed connection, not the server
// 4 GiB. The response bound protects clients the same way.
const (
	// MaxRequestFrame bounds a request payload.
	MaxRequestFrame = 1 << 20
	// MaxResponseFrame bounds a response payload a client will accept.
	MaxResponseFrame = 256 << 20
)

// reqHeaderLen/respHeaderLen are the fixed payload prefixes before the body.
const (
	reqHeaderLen  = 1 + 1 + 2 + 8
	respHeaderLen = 1 + 1 + 8
)

// Error codes carried by StatusError frames, mirroring HTTP for
// familiarity.
const (
	CodeBadRequest  = 400
	CodeFrameTooBig = 413
	CodeCancelled   = 499
	CodeInternal    = 500
)

// Typed protocol errors. Decoders return these (wrapped with detail);
// they must never panic or allocate proportionally to attacker-chosen
// length fields.
var (
	// ErrFrameTooLarge: a length prefix exceeded the frame bound.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrTruncated: the payload ended before its declared structure did.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrVersion: the frame's version byte is not one this side speaks.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrBadFrame: structurally invalid payload (bad opcode, overflowing
	// varint, term count or length inconsistent with the payload size).
	ErrBadFrame = errors.New("wire: malformed frame")
)

// Request is one decoded query request. Terms alias the decode buffer:
// they are valid until the next Decode into the same buffer, which is
// exactly the lifetime the serving loop needs and saves per-term copies.
type Request struct {
	Op    byte
	Flags uint16
	Trace obs.TraceID
	K     int
	Terms [][]byte
}

// AppendRequest encodes a query request onto dst and returns the extended
// slice, frame prefix included. strategy is the core.Strategy value, which
// servers refuse unless it is core.StrategyPartition (0); k<=0 means
// "server default", as over HTTP. parallel fills the frame's reserved
// parallelism field, which servers ignore.
func AppendRequest(dst []byte, trace obs.TraceID, strategy byte, k, parallel int, terms []string) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	dst = append(dst, Version, OpQuery)
	dst = binary.BigEndian.AppendUint16(dst, flagsNone)
	dst = binary.BigEndian.AppendUint64(dst, uint64(trace))
	dst = append(dst, strategy)
	if k < 0 {
		k = 0
	}
	if parallel < 0 {
		parallel = 0
	}
	dst = binary.AppendUvarint(dst, uint64(k))
	dst = binary.AppendUvarint(dst, uint64(parallel))
	dst = binary.AppendUvarint(dst, uint64(len(terms)))
	for _, t := range terms {
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		dst = append(dst, t...)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// AppendControl encodes a bodyless request frame (OpHello, OpPing) onto
// dst.
func AppendControl(dst []byte, op byte, trace obs.TraceID) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, Version, op)
	dst = binary.BigEndian.AppendUint16(dst, flagsNone)
	dst = binary.BigEndian.AppendUint64(dst, uint64(trace))
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// Decode parses a request payload (the bytes after the length prefix)
// into r, reusing r.Terms. Terms alias payload. The version byte is
// checked first so the caller can distinguish a speaker of a future
// protocol from line noise.
func (r *Request) Decode(payload []byte) error {
	if len(payload) < reqHeaderLen {
		return fmt.Errorf("%w: %d-byte request payload", ErrTruncated, len(payload))
	}
	if payload[0] != Version {
		return fmt.Errorf("%w: got %d, this server speaks %d", ErrVersion, payload[0], Version)
	}
	r.Op = payload[1]
	r.Flags = binary.BigEndian.Uint16(payload[2:4])
	r.Trace = obs.TraceID(binary.BigEndian.Uint64(payload[4:12]))
	r.K = 0
	r.Terms = r.Terms[:0]
	body := payload[reqHeaderLen:]
	switch r.Op {
	case OpHello, OpPing:
		if len(body) != 0 {
			return fmt.Errorf("%w: op %d carries no body", ErrBadFrame, r.Op)
		}
		return nil
	case OpQuery:
	default:
		return fmt.Errorf("%w: unknown opcode %d", ErrBadFrame, r.Op)
	}
	if len(body) < 1 {
		return fmt.Errorf("%w: query body missing strategy", ErrTruncated)
	}
	if body[0] != 0 {
		return fmt.Errorf("%w: unknown strategy %d", ErrBadFrame, body[0])
	}
	body = body[1:]
	k, n := binary.Uvarint(body)
	if n <= 0 || k > server.MaxK {
		return fmt.Errorf("%w: bad k", ErrBadFrame)
	}
	body = body[n:]
	// The reserved parallelism field: read past, ignored.
	_, n = binary.Uvarint(body)
	if n <= 0 {
		return fmt.Errorf("%w: bad parallelism", ErrBadFrame)
	}
	body = body[n:]
	nterms, n := binary.Uvarint(body)
	if n <= 0 {
		return fmt.Errorf("%w: bad term count", ErrBadFrame)
	}
	body = body[n:]
	// A term is at least one length byte; the bound rejects counts the
	// remaining payload cannot possibly hold before any loop work.
	if nterms == 0 || nterms > uint64(len(body)) {
		return fmt.Errorf("%w: %d terms in %d bytes", ErrBadFrame, nterms, len(body))
	}
	r.K = int(k)
	for i := uint64(0); i < nterms; i++ {
		tl, n := binary.Uvarint(body)
		if n <= 0 || tl > uint64(len(body)-n) {
			return fmt.Errorf("%w: term %d length", ErrTruncated, i)
		}
		if tl == 0 {
			return fmt.Errorf("%w: empty term %d", ErrBadFrame, i)
		}
		r.Terms = append(r.Terms, body[n:n+int(tl)])
		body = body[n+int(tl):]
	}
	if len(body) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after terms", ErrBadFrame, len(body))
	}
	return nil
}

// appendRespHeader starts a response frame onto dst: length placeholder
// plus the fixed header. patchFrameLen must be called with the returned
// start offset once the body is complete.
func appendRespHeader(dst []byte, status byte, trace obs.TraceID) ([]byte, int) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, Version, status)
	dst = binary.BigEndian.AppendUint64(dst, uint64(trace))
	return dst, start
}

// patchFrameLen writes the final payload length into the placeholder at
// start.
func patchFrameLen(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// AppendError encodes a StatusError response frame.
func AppendError(dst []byte, trace obs.TraceID, code uint16, msg string) []byte {
	dst, start := appendRespHeader(dst, StatusError, trace)
	dst = binary.BigEndian.AppendUint16(dst, code)
	dst = append(dst, msg...)
	return patchFrameLen(dst, start)
}

// AppendRetry encodes a StatusRetry response frame with the given
// Retry-After hint in seconds (clamped to one byte).
func AppendRetry(dst []byte, trace obs.TraceID, afterSec int, msg string) []byte {
	if afterSec < 0 {
		afterSec = 0
	}
	if afterSec > 255 {
		afterSec = 255
	}
	dst, start := appendRespHeader(dst, StatusRetry, trace)
	dst = append(dst, byte(afterSec))
	dst = append(dst, msg...)
	return patchFrameLen(dst, start)
}

// Response is one decoded response. Payload aliases the decode buffer.
type Response struct {
	Status byte
	Trace  obs.TraceID
	// Code is the error code for StatusError responses.
	Code uint16
	// RetryAfter is the jittered backoff hint, seconds, for StatusRetry.
	RetryAfter int
	// Payload is the body: the JSON document for a StatusOK query
	// response, the message for error/retry responses.
	Payload []byte
}

// DecodeResponse parses a response payload (after the length prefix).
func DecodeResponse(payload []byte, resp *Response) error {
	if len(payload) < respHeaderLen {
		return fmt.Errorf("%w: %d-byte response payload", ErrTruncated, len(payload))
	}
	if payload[0] != Version {
		return fmt.Errorf("%w: got %d, this client speaks %d", ErrVersion, payload[0], Version)
	}
	resp.Status = payload[1]
	resp.Trace = obs.TraceID(binary.BigEndian.Uint64(payload[2:10]))
	resp.Code, resp.RetryAfter = 0, 0
	body := payload[respHeaderLen:]
	switch resp.Status {
	case StatusOK:
		resp.Payload = body
	case StatusError:
		if len(body) < 2 {
			return fmt.Errorf("%w: error frame missing code", ErrTruncated)
		}
		resp.Code = binary.BigEndian.Uint16(body)
		resp.Payload = body[2:]
	case StatusRetry:
		if len(body) < 1 {
			return fmt.Errorf("%w: retry frame missing hint", ErrTruncated)
		}
		resp.RetryAfter = int(body[0])
		resp.Payload = body[1:]
	default:
		return fmt.Errorf("%w: unknown status %d", ErrBadFrame, resp.Status)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame from r into buf (grown as
// needed) and returns the payload slice, which aliases buf. A length
// prefix over max returns ErrFrameTooLarge with no allocation made for
// the oversized payload; the caller must treat the stream as
// unrecoverable and close it.
func ReadFrame(r io.Reader, buf []byte, max int) ([]byte, []byte, error) {
	// The length prefix is read into buf itself rather than a local
	// array: a [4]byte passed through the io.Reader interface escapes,
	// which would put one heap allocation on every frame of the hot path.
	if cap(buf) < 4 {
		buf = make([]byte, 4, 4096)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return buf, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > uint32(max) {
		return buf, nil, fmt.Errorf("%w: %d bytes (max %d)", ErrFrameTooLarge, n, max)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return buf, buf, nil
}
