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
// RunMeta per 8 remaining bytes) plus a constant for the decoder.
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
// runs it on the file's last frame — and the column frame decoder with
// arbitrary payloads: a footer, and a column frame decoded under the
// footer's dictionary, as Open decodes it. It is seeded with an encoding of a footer with every field set
// (its string dictionary, tuple run spans and column frame offsets among
// them), with a run directory indexing past its dictionary, and with a
// written segment's footer beside its first tuple run's column frame, whole
// and damaged (columnDamage: cut short, a count off by one, an index past
// the dictionary's end, a span its entry does not hold). Invariants: the
// footer decode returns an error, or decode → encode → decode → encode is
// a fixed point (the first decode may drop what encoding canonicalises: a
// repeated dictionary string); the
// column decode, checking only and projecting the place and every
// dictionary string as a key, errors alike and otherwise reports the same
// count and span; neither panics, and each allocates at most
// footerAllocBound of its input.
func FuzzDecodeFooter(f *testing.F) {
	full := encodeFooter(testFooter())
	f.Add(full, []byte(nil))
	f.Add(full[:len(full)/2], []byte(nil))
	f.Add(encodeFooter(&Footer{}), []byte(nil))
	f.Add(oneRunFooter(0), []byte(nil))
	f.Add(oneRunFooter(1), []byte(nil))
	f.Add([]byte{}, []byte(nil))
	written := writtenSegment(f)
	foot, cols := columnSeed(f, written, nil)
	f.Add(foot, cols)
	for _, c := range columnDamage {
		foot, cols := columnSeed(f, written, c.damage)
		f.Add(foot, cols)
	}
	f.Fuzz(func(t *testing.T, payload, cols []byte) {
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
		proj := &store.Projection{Place: true, AnnKeys: foot.Dict}
		var c columns
		for _, p := range []*store.Projection{nil, proj} {
			if n := allocatedBy(func() { _, _ = (&columns{}).decode(cols, foot.Dict, nil, p, &wal.Span{}) }); n > footerAllocBound(len(cols)) {
				t.Fatalf("decoding a %d-byte column frame (projected %v) allocated %d B, want <= %d", len(cols), p != nil, n, footerAllocBound(len(cols)))
			}
		}
		var span, pspan wal.Span
		tuples, err := c.decode(cols, foot.Dict, nil, nil, &span)
		n := len(tuples)
		projected, perr := c.decode(cols, foot.Dict, nil, proj, &pspan)
		if (err == nil) != (perr == nil) || len(projected) != n || pspan != span {
			t.Fatalf("column frame %x: checked %d tuples, %+v, %v; projected %d, %+v, %v", cols, n, span, err, len(projected), pspan, perr)
		}
	})
}

// writtenSegment freezes populate(st, 2, 10) into a segment under a temp
// directory and returns its bytes.
func writtenSegment(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	st, tier, _, err := Recover(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, st, 2, 10)
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tier.segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	tier.Close()
	return data
}

// columnSeed damages the first tuple run of the segment data (unless
// damage is nil) and returns its footer payload and that run's column
// frame payload.
func columnSeed(t testing.TB, data []byte, damage func(testing.TB, *segmentParts, int)) ([]byte, []byte) {
	t.Helper()
	p := splitSegment(t, data)
	ent := p.firstTupleRun(t)
	if damage != nil {
		damage(t, p, ent)
	}
	return encodeFooter(p.foot), p.cols[ent]
}

// FuzzRecoverFooter drives recovery with arbitrary column frames and
// footers over real data frames: a directory holds a first segment as
// written and a second whose data frames — one run of every op, merge
// frames included, their strings indexes into the written dictionary — are
// kept while the fuzz inputs stand in for its column frames (the bytes
// between the data frames and the footer) and its footer payload,
// re-framed with a valid CRC and trailer. It is seeded with the written
// column frames and footer, with the footer cut short, with its tuple
// runs' stop counts and spans changed, with its dictionary cut to the run
// keys (so frames index past its end or name other strings), and with the
// first tuple run's column frame damaged (columnDamage). Invariant:
// Recover returns an error, or a store whose reads of every key either
// footer lists, keyed and scan alike, full and projected, do not panic.
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
	parts := splitSegment(f, second)
	cols, footer := segmentRegions(f, parts)
	if _, _, _, err := Recover(dir, 4); err != nil {
		f.Fatal(err)
	}
	f.Add(cols, footer)
	f.Add(cols, footer[:len(footer)/2])
	f.Add(cols, encodeFooter(&Footer{}))
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
		f.Add(cols, encodeFooter(foot))
	}
	for _, c := range columnDamage {
		p := splitSegment(f, second)
		c.damage(f, p, p.firstTupleRun(f))
		cols, footer := segmentRegions(f, p)
		f.Add(cols, footer)
	}

	// One directory serves every input (a fuzz worker runs its inputs one
	// at a time); both files are rewritten in full before each recovery.
	fuzzDir := f.TempDir()
	head := parts.head
	f.Fuzz(func(t *testing.T, cols, payload []byte) {
		body := append(slices.Clip(head), cols...)
		seg := append(wal.AppendFrame(body, payload), 0, 0, 0, 0)
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
			var c store.Cut
			st.TakeCut("", &c)
			read := store.TupleRead{Project: &store.Projection{Place: true, AnnKeys: []string{"landuse", "poi_category"}}}
			st.NewSegmentVisitor(&c, read, func(store.TupleRef, *core.EpisodeTuple) bool { return true }).Visit(seg)
		}
	})
}

// segmentRegions lays the parts out and returns their column frames, the
// bytes between the data frames and the footer, and their footer payload.
func segmentRegions(t testing.TB, p *segmentParts) (cols, footer []byte) {
	t.Helper()
	data := p.bytes()
	footOff := len(data) - trailerSize - int(binary.LittleEndian.Uint32(data[len(data)-trailerSize:]))
	footer, _, err := wal.ParseFrame(data[footOff:])
	if err != nil {
		t.Fatal(err)
	}
	return data[len(p.head):footOff], footer
}
