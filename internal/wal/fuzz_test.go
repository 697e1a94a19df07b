package wal

import (
	"bytes"
	"runtime"
	"testing"
)

// decodeAllocBound is what decoding n payload bytes may allocate: a small
// multiple of n plus a constant for the decoder and the Mutation itself.
// Element counts are capped by the bytes left over a minimum size per
// element, and the costliest element, a tuple, allocates about twelve
// times its minimum (104 B against 9).
func decodeAllocBound(n int) uint64 { return 32*uint64(n) + 4096 }

// allocatedBy returns the fewest heap bytes fn allocated over three calls,
// so a background allocation landing in one window does not count.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzDecodeMutation drives the cold tier's decoder — every WAL frame and
// segment row replays through decodeMutation — with arbitrary payloads,
// seeded with an encoding of every op. Invariant: decoding returns an error,
// or decode → encode → decode is a fixed point (compared as bytes, so NaN
// coordinates compare exactly), with and without a shared intern table; it
// never panics and never allocates more than decodeAllocBound.
func FuzzDecodeMutation(f *testing.F) {
	for _, m := range testMutations() {
		e := &encoder{}
		encodeMutation(e, m)
		f.Add(e.b)
		f.Add(e.b[:len(e.b)/2])
	}
	f.Add([]byte{})
	interned := map[string]string{}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if n := allocatedBy(func() { _, _ = decodeMutation(payload, nil) }); n > decodeAllocBound(len(payload)) {
			t.Fatalf("decoding %d bytes allocated %d B, want <= %d", len(payload), n, decodeAllocBound(len(payload)))
		}
		m, err := decodeMutation(payload, nil)
		if err != nil {
			return
		}
		e := &encoder{}
		encodeMutation(e, m)
		first := append([]byte(nil), e.b...)
		again, err := decodeMutation(first, nil)
		if err != nil {
			t.Fatalf("re-encoding of %x does not decode: %v", payload, err)
		}
		e.reset()
		encodeMutation(e, again)
		if !bytes.Equal(e.b, first) {
			t.Fatalf("decode → encode is not a fixed point for %x:\n first  %x\n second %x", payload, first, e.b)
		}
		shared, err := decodeMutation(payload, interned)
		if err != nil {
			t.Fatalf("interned decode of %x fails: %v", payload, err)
		}
		e.reset()
		encodeMutation(e, shared)
		if !bytes.Equal(e.b, first) {
			t.Fatalf("interned decode of %x differs:\n plain    %x\n interned %x", payload, first, e.b)
		}
	})
}
