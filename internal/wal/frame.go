package wal

import (
	"encoding/binary"
	"errors"

	"semitri/internal/store"
)

// The segment store (internal/segment) persists frozen store tails in the
// WAL's wire format: the same varint mutation codec, the same
// [u32 length][u32 CRC-32C][payload] framing. This file is the exported
// surface it builds on, so the two on-disk formats cannot drift apart.

// FrameHeaderSize is the size of the [length][CRC] header preceding every
// frame payload.
const FrameHeaderSize = frameHeaderSize

// MaxFramePayload bounds a frame's payload length; anything larger in a
// header is corruption, not data.
const MaxFramePayload = maxFrame

// ErrFrame reports a frame whose header or checksum does not hold together.
var ErrFrame = errors.New("wal: invalid frame")

// AppendMutationFrame appends one framed mutation — header plus payload — to
// buf and returns the extended buffer. It is the one frame builder, the log's
// and the segment writer's, so frames built here replay through the same
// decoder. The header is reserved, the payload encoded behind it and the
// header filled in place.
func AppendMutationFrame(buf []byte, m store.Mutation) []byte {
	at := len(buf)
	e := encoder{b: append(buf, make([]byte, frameHeaderSize)...)}
	encodeMutation(&e, m)
	payload := e.b[at+frameHeaderSize:]
	binary.LittleEndian.PutUint32(e.b[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.b[at+4:], frameCRC(payload))
	return e.b
}

// ParseFrame validates the frame at the start of b and returns its payload
// (aliasing b — callers must not retain it past the life of the backing
// buffer) together with the frame's total size in bytes. A truncated header,
// an impossible length or a checksum mismatch returns ErrFrame.
func ParseFrame(b []byte) (payload []byte, size int, err error) {
	if len(b) < frameHeaderSize {
		return nil, 0, ErrFrame
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxFrame || int(n) > len(b)-frameHeaderSize {
		return nil, 0, ErrFrame
	}
	payload = b[frameHeaderSize : frameHeaderSize+int(n)]
	if frameCRC(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0, ErrFrame
	}
	return payload, frameHeaderSize + int(n), nil
}

// DecodeMutation decodes one frame payload (as returned by ParseFrame).
// interned, when non-nil, is a string table shared across calls; see
// decodeMutation. The decoder never panics on arbitrary input.
func DecodeMutation(payload []byte, interned map[string]string) (store.Mutation, error) {
	return decodeMutation(payload, interned)
}
