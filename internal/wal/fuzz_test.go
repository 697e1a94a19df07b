package wal

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/store"
)

// decodeAllocBound is what decoding n payload bytes may allocate: a small
// multiple of n plus a constant for the decoder and the Mutation itself.
// Element counts are capped by the bytes left over a minimum size per
// element, and the costliest element, a tuple, allocates about seventeen
// times its minimum (104 B against 6).
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
// segment row replays through it — with arbitrary payloads, an arbitrary
// kind and time filter (what a segment scan decodes with) and an arbitrary
// set of wanted run positions (what a keyed read decodes with), each
// payload decoded twice: as a log frame, its strings inline, and as a
// segment run, its strings indexes into the first dictLen strings of the
// dictionary the seeds were encoded with (so an index can fall past the
// end). It is seeded with an encoding of every op in both forms.
// Invariants, in each form: decoding returns an error, or decode → encode
// → decode is a fixed point (compared as bytes, so NaN coordinates compare
// exactly), inline with and without a shared intern table; it never panics
// and never allocates more than decodeAllocBound. A segment run decodes
// filtered too, by the filter, by the wanted positions (bit i%8 of want
// wants position i) and by both: each filtered decode errors exactly when
// the full decode does; otherwise it keeps the tuple at a position exactly
// when the filters select it, each tuple it keeps encodes like the full
// decode's, and the rest of the mutation encodes like it too. A segment
// run's reported span is SpanOf the full decode's tuples, whatever the
// filters refuse.
func FuzzDecodeMutation(f *testing.F) {
	t0 := ts(0).Unix()
	var seedDict Dict
	for _, m := range testMutations() {
		inline := &Encoder{}
		encodeMutation(inline, m)
		indexed := &Encoder{dict: &seedDict}
		encodeMutation(indexed, m)
		for _, b := range [][]byte{inline.b, indexed.b} {
			f.Add(b, uint8(255), uint8(0xff), int64(math.MinInt64), int64(math.MaxInt64), uint8(0xff))
			f.Add(b[:len(b)/2], uint8(255), uint8(0xff), int64(math.MinInt64), int64(math.MaxInt64), uint8(0x0f))
			f.Add(b, uint8(255), uint8(1<<episode.Stop), t0+31, int64(math.MaxInt64), uint8(0x02))
			f.Add(b, uint8(3), uint8(0xff), int64(math.MinInt64), t0+1, uint8(0x01))
			f.Add(b, uint8(255), uint8(0), int64(math.MinInt64), int64(math.MaxInt64), uint8(0))
		}
	}
	f.Add([]byte{}, uint8(0), uint8(0xff), int64(0), int64(0), uint8(0))
	interned := map[string]string{}
	f.Fuzz(func(t *testing.T, payload []byte, dictLen uint8, kinds uint8, lo, hi int64, want uint8) {
		keep := func(k episode.Kind, in, out time.Time) bool {
			return kinds&(1<<(k&7)) != 0 && out.Unix() >= lo && in.Unix() <= hi
		}
		if n := allocatedBy(func() { _, _ = decodeMutation(payload, nil) }); n > decodeAllocBound(len(payload)) {
			t.Fatalf("decoding %d bytes inline allocated %d B, want <= %d", len(payload), n, decodeAllocBound(len(payload)))
		}
		if m, err := decodeMutation(payload, nil); err == nil {
			checkFixedPoint(t, payload, m, false)
			shared, err := decodeMutation(payload, interned)
			if err != nil {
				t.Fatalf("interned decode of %x fails: %v", payload, err)
			}
			if a, b := encodeWith(m, false), encodeWith(shared, false); !bytes.Equal(a, b) {
				t.Fatalf("interned decode of %x differs:\n plain    %x\n interned %x", payload, a, b)
			}
		}
		dict := seedDict.Strings[:min(int(dictLen), len(seedDict.Strings))]
		wanted := make([]bool, len(payload)) // a run holds no more tuples than bytes
		for i := range wanted {
			wanted[i] = want&(1<<(i%8)) != 0
		}
		filters := []struct {
			keep   store.TupleFilter
			wanted []bool
		}{{nil, nil}, {keep, nil}, {nil, wanted}, {keep, wanted}}
		m, span, err := DecodeRun(payload, dict, nil, nil)
		for _, fl := range filters {
			if n := allocatedBy(func() { _, _, _ = DecodeRun(payload, dict, fl.keep, fl.wanted) }); n > decodeAllocBound(len(payload)) {
				t.Fatalf("decoding %d bytes (filter %v, wanted %v) allocated %d B, want <= %d",
					len(payload), fl.keep != nil, fl.wanted != nil, n, decodeAllocBound(len(payload)))
			}
			got, gspan, gerr := DecodeRun(payload, dict, fl.keep, fl.wanted)
			if (err == nil) != (gerr == nil) {
				t.Fatalf("full decode of %x: %v, filtered decode (filter %v, wanted %v): %v", payload, err, fl.keep != nil, fl.wanted != nil, gerr)
			}
			if err != nil {
				continue
			}
			if gspan != span {
				t.Fatalf("run %x: filtered decode reports span %+v, full decode %+v", payload, gspan, span)
			}
			checkFiltered(t, m, got, func(i int, tp *core.EpisodeTuple) bool {
				return (fl.wanted == nil || i < len(fl.wanted) && fl.wanted[i]) &&
					(fl.keep == nil || fl.keep(tp.Kind, tp.TimeIn, tp.TimeOut))
			})
		}
		if err != nil {
			return
		}
		if want := SpanOf(m.Tuples); span != want {
			t.Fatalf("run %x: decode reports span %+v, its tuples span %+v", payload, span, want)
		}
		checkFixedPoint(t, payload, m, true)
	})
}

// encodeWith encodes m, its strings as indexes into a fresh dictionary
// when indexed is set and inline otherwise.
func encodeWith(m store.Mutation, indexed bool) []byte {
	e := &Encoder{}
	if indexed {
		e.dict = &Dict{}
	}
	encodeMutation(e, m)
	return e.b
}

// checkFixedPoint checks that m, the full decode of payload, re-encodes
// (inline, or through a fresh dictionary when indexed) to bytes that
// decode to a mutation encoding alike.
func checkFixedPoint(t *testing.T, payload []byte, m store.Mutation, indexed bool) {
	t.Helper()
	e := &Encoder{}
	if indexed {
		e.dict = &Dict{}
	}
	encodeMutation(e, m)
	var again store.Mutation
	var err error
	if indexed {
		again, _, err = DecodeRun(e.b, e.dict.Strings, nil, nil)
	} else {
		again, err = decodeMutation(e.b, nil)
	}
	if err != nil {
		t.Fatalf("re-encoding of %x does not decode: %v", payload, err)
	}
	if second := encodeWith(again, indexed); !bytes.Equal(e.b, second) {
		t.Fatalf("decode → encode is not a fixed point for %x:\n first  %x\n second %x", payload, e.b, second)
	}
}

// checkFiltered checks a filtered decode against the full decode m of the
// same payload: position by position, the filtered decode holds a tuple
// exactly where selects selects m's, and that tuple encodes like m's;
// without their tuples, the two mutations encode alike.
func checkFiltered(t *testing.T, m, kept store.Mutation, selects func(i int, tp *core.EpisodeTuple) bool) {
	t.Helper()
	if len(kept.Tuples) != len(m.Tuples) {
		t.Fatalf("filtered decode holds %d tuple positions, full decode %d", len(kept.Tuples), len(m.Tuples))
	}
	var a, b Encoder
	for i, tp := range m.Tuples {
		if sel := selects(i, tp); sel != (kept.Tuples[i] != nil) {
			t.Fatalf("tuple %d: filters select it: %v, filtered decode kept it: %v", i, sel, kept.Tuples[i] != nil)
		}
		if kept.Tuples[i] == nil {
			continue
		}
		a.b, b.b = a.b[:0], b.b[:0]
		a.tuples([]*core.EpisodeTuple{tp})
		b.tuples([]*core.EpisodeTuple{kept.Tuples[i]})
		if !bytes.Equal(a.b, b.b) {
			t.Fatalf("tuple %d: filtered decode %x, full decode %x", i, b.b, a.b)
		}
	}
	m.Tuples, kept.Tuples = nil, nil
	a.b, b.b = a.b[:0], b.b[:0]
	encodeMutation(&a, m)
	encodeMutation(&b, kept)
	if !bytes.Equal(a.b, b.b) {
		t.Fatalf("filtered decode's mutation %x, full decode's %x", b.b, a.b)
	}
}

// replayAllocBound is what replaying a segment of n bytes may allocate:
// decoding and the store's copies of what it decodes, a small multiple of
// n, plus a constant for the intern table and the empty store.
func replayAllocBound(n int) uint64 { return 64*uint64(n) + 256<<10 }

// segmentBytes is a segment file: the log header, then body.
func segmentBytes(body []byte) []byte {
	return append(AppendFileHeader(nil, segmentMagic, formatVersion), body...)
}

// FuzzReplaySegment drives segment replay with a valid log header followed
// by arbitrary bytes, seeded with the frames of every op. The bytes replay
// from memory, through the Blob recovery reads a file with, so the target
// runs no file I/O; recovery from disk and the repair of a tear are the
// torn-log tests' (torn_test.go). Invariant: replay never panics, allocates
// at most replayAllocBound of the segment, and, unless a frame that checks
// and decodes fails to apply, rebuilds the store that replaying the
// segment's frames up to the reported tear rebuilds, where the bytes at the
// tear do not hold a frame.
func FuzzReplaySegment(f *testing.F) {
	var all []byte
	for _, m := range testMutations() {
		frame := AppendMutationFrame(nil, m, nil)
		all = append(all, frame...)
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
	}
	f.Add(all)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		data := segmentBytes(body)
		var (
			rec     *store.Store
			applied int
			tornAt  int64
			err     error
		)
		n := allocatedBy(func() {
			rec = store.New()
			applied, tornAt, err = replayBlob(bytesBlob(data), "fuzz.log", rec)
		})
		if n > replayAllocBound(len(data)) {
			t.Fatalf("replaying %d bytes allocated %d B, want <= %d", len(data), n, replayAllocBound(len(data)))
		}
		if err != nil {
			return
		}
		end := len(data)
		if tornAt >= 0 {
			end = int(tornAt)
		}
		want := store.New()
		frames := 0
		for off := headerSize; off < end; frames++ {
			payload, size, perr := ParseFrame(data[off:end])
			if perr != nil {
				t.Fatalf("frame at %d before the tear at %d: %v", off, end, perr)
			}
			m, derr := decodeMutation(payload, nil)
			if derr != nil {
				t.Fatalf("frame at %d before the tear at %d: %v", off, end, derr)
			}
			if aerr := want.Apply(m); aerr != nil {
				t.Fatalf("frame at %d before the tear at %d: %v", off, end, aerr)
			}
			off += size
		}
		if frames != applied {
			t.Fatalf("replay applied %d frames, the segment holds %d before the tear", applied, frames)
		}
		if tornAt >= 0 {
			if payload, _, perr := ParseFrame(data[end:]); perr == nil {
				if _, derr := decodeMutation(payload, nil); derr == nil {
					t.Fatalf("tear reported at %d, where a whole frame starts", end)
				}
			}
		}
		assertSameContent(t, want, rec)
	})
}
