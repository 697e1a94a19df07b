package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"runtime"
	"slices"
	"testing"

	"semitri/internal/core"
	"semitri/internal/geo"
	"semitri/internal/gps"
	"semitri/internal/store"
	"semitri/internal/wal"
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
// an encoding of a footer with every field set (its string dictionary and
// tuple run spans among them) and with a run directory indexing past its
// dictionary. Invariant: decoding returns an error, or decode → encode →
// decode → encode is a fixed point (the first decode may drop what
// encoding canonicalises: duplicate map keys, the map order, a repeated
// dictionary string); it never panics and never allocates more than
// footerAllocBound.
func FuzzDecodeFooter(f *testing.F) {
	full := encodeFooter(testFooter())
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(encodeFooter(&Footer{}))
	f.Add(oneRunFooter(0))
	f.Add(oneRunFooter(1))
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

// FuzzRecoverFooter drives recovery with arbitrary footers over real data
// frames: a directory holds a first segment as written and a second whose
// data frames — one run of every op, merge frames included, their strings
// indexes into the written dictionary — are kept while the fuzz input
// stands in for its footer payload, re-framed with a valid CRC and
// trailer. It is seeded with the written footer, with it cut short, with
// its tuple runs' stop counts and spans changed, and with its dictionary
// cut to the run keys (so frames index past its end or name other
// strings). Invariant: Recover returns an error, or a store whose reads of
// every key either footer lists, keyed and scan alike, do not panic.
func FuzzRecoverFooter(f *testing.F) {
	dir := f.TempDir()
	st, tier, _, err := Recover(dir, 4)
	if err != nil {
		f.Fatal(err)
	}
	populate(f, st, 2, 10)
	if err := tier.Freeze(st); err != nil {
		f.Fatal(err)
	}
	anns := []core.Annotation{{Key: "activity", Value: "shop", Confidence: 0.9, Source: "hmm"}}
	putObject(f, st, "obj-2", "t-2", 2, 6) // every put op
	st.PutRecords([]gps.Record{{ObjectID: "obj-0", Position: geo.Pt(1, 2), Time: ts(50)}})
	err = errors.Join(
		st.AppendEpisodes("t-0", testEpisode("t-0", 7)),
		st.AppendStructuredTuples("t-0", "obj-0", "merged", testTuple("t-0", 7)),
		st.MergeTupleAnnotations("t-1", "merged", 1, nil, anns),
		tier.Freeze(st))
	if err != nil {
		f.Fatal(err)
	}
	ops := map[store.MutationOp]bool{}
	for _, m := range tier.segs[1].foot.Runs {
		ops[m.Op] = true
	}
	if len(ops) != int(store.MutMergeTuple) {
		f.Fatalf("second segment holds runs of %d ops, want all %d", len(ops), store.MutMergeTuple)
	}
	first, err := os.ReadFile(tier.segs[0].path)
	if err != nil {
		f.Fatal(err)
	}
	second, err := os.ReadFile(tier.segs[1].path)
	if err != nil {
		f.Fatal(err)
	}
	tier.Close()
	footSize := int(binary.LittleEndian.Uint32(second[len(second)-trailerSize:]))
	body := second[:len(second)-trailerSize-footSize]
	footer, _, err := wal.ParseFrame(second[len(body):])
	if err != nil {
		f.Fatal(err)
	}
	if _, _, _, err := Recover(dir, 4); err != nil {
		f.Fatal(err)
	}
	f.Add(footer)
	f.Add(footer[:len(footer)/2])
	f.Add(encodeFooter(&Footer{}))
	for _, edit := range []func(*Footer){
		func(foot *Footer) {
			for i := range foot.Runs {
				foot.Runs[i].Stops++
				foot.Runs[i].TimeMin, foot.Runs[i].TimeMax = foot.Runs[i].TimeMax, foot.Runs[i].TimeMin
			}
		},
		func(foot *Footer) { foot.Dict = nil },
	} {
		foot, err := decodeFooter(footer)
		if err != nil {
			f.Fatal(err)
		}
		edit(foot)
		f.Add(encodeFooter(foot))
	}

	// One directory serves every input (a fuzz worker runs its inputs one
	// at a time); both files are rewritten in full before each recovery.
	fuzzDir := f.TempDir()
	f.Fuzz(func(t *testing.T, payload []byte) {
		seg := append(wal.AppendFrame(slices.Clip(body), payload), 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(seg[len(seg)-4:], uint32(len(seg)-4-len(body)))
		seg = append(seg, trailerMagic[:]...)
		for seq, data := range [][]byte{first, seg} {
			if err := os.WriteFile(wal.SeqPath(fuzzDir, filePrefix, uint64(seq+1), fileSuffix), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, tier, _, err := Recover(fuzzDir, 4)
		if err != nil {
			return
		}
		defer tier.Close()
		for _, r := range tier.segs {
			for _, m := range r.foot.Runs {
				st.Records(m.Object)
				st.Trajectory(m.Traj)
				st.TrajectoryExtent(m.Traj)
				st.Episodes(m.Traj)
				st.Structured(m.Traj, m.Interp)
				st.AppendTuplesAt(m.Traj, m.Interp, []int{0, m.Start, m.Start + m.Count - 1}, nil, nil)
			}
		}
		capture(st)
		for seg := range tier.segs {
			st.VisitColdSegmentTuples(seg, "", func(store.TupleRef, core.EpisodeTuple) bool { return true })
		}
	})
}
