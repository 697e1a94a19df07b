package segment

import (
	"bytes"
	"runtime"
	"testing"
)

// footerAllocBound is what decoding an n-byte footer may allocate: the
// codec's Count caps every sequence length by the bytes left over a minimum
// element size, so a small multiple of n (the run directory preallocates a
// RunMeta per 8 remaining bytes) plus a constant for the decoder and the
// empty maps.
func footerAllocBound(n int) uint64 { return 256*uint64(n) + 4096 }

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

// FuzzDecodeFooter drives the segment footer decoder — every segment open
// runs it on the file's last frame — with arbitrary payloads, seeded with
// an encoding of a footer with every field set. Invariant: decoding returns
// an error, or decode → encode → decode → encode is a fixed point (the
// first decode may drop what encoding canonicalises: duplicate map keys,
// the map order); it never panics and never allocates more than
// footerAllocBound.
func FuzzDecodeFooter(f *testing.F) {
	full := encodeFooter(testFooter())
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(encodeFooter(&Footer{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if n := allocatedBy(func() { _, _ = decodeFooter(payload) }); n > footerAllocBound(len(payload)) {
			t.Fatalf("decoding %d bytes allocated %d B, want <= %d", len(payload), n, footerAllocBound(len(payload)))
		}
		foot, err := decodeFooter(payload)
		if err != nil {
			return
		}
		first := encodeFooter(foot)
		again, err := decodeFooter(first)
		if err != nil {
			t.Fatalf("re-encoding of %x does not decode: %v", payload, err)
		}
		if second := encodeFooter(again); !bytes.Equal(second, first) {
			t.Fatalf("decode → encode is not a fixed point for %x:\n first  %x\n second %x", payload, first, second)
		}
	})
}
