package segment

import (
	"encoding/binary"
	"errors"
	"os"
	"slices"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/wal"
)

// segmentParts is a segment file taken apart: its header and data frames,
// each tuple run's column frame payload by directory entry, and its footer.
type segmentParts struct {
	head []byte
	cols map[int][]byte
	foot *Footer
}

// splitSegment takes the segment file data apart.
func splitSegment(t testing.TB, data []byte) *segmentParts {
	t.Helper()
	footOff := len(data) - trailerSize - int(binary.LittleEndian.Uint32(data[len(data)-trailerSize:]))
	payload, _, err := wal.ParseFrame(data[footOff:])
	if err != nil {
		t.Fatal(err)
	}
	foot, err := decodeFooter(payload)
	if err != nil {
		t.Fatal(err)
	}
	p := &segmentParts{cols: map[int][]byte{}, foot: foot}
	end := footOff
	for i := range foot.Runs {
		if meta := &foot.Runs[i]; isTupleRun(meta.Op) {
			payload, _, err := wal.ParseFrame(data[meta.Cols:])
			if err != nil {
				t.Fatal(err)
			}
			p.cols[i] = slices.Clone(payload)
			end = min(end, int(meta.Cols))
		}
	}
	p.head = slices.Clone(data[:end])
	return p
}

// readSegment takes the segment file at path apart.
func readSegment(t testing.TB, path string) *segmentParts {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return splitSegment(t, data)
}

// bytes lays the parts out as a writer does: each column frame framed
// after the data frames, in directory order, at the offset its entry is
// set to, then the footer and the trailer.
func (p *segmentParts) bytes() []byte {
	out := slices.Clone(p.head)
	for i := range p.foot.Runs {
		if isTupleRun(p.foot.Runs[i].Op) {
			p.foot.Runs[i].Cols = int64(len(out))
			out = wal.AppendFrame(out, p.cols[i])
		}
	}
	body := len(out)
	out = wal.AppendFrame(out, encodeFooter(p.foot))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(out)-body))
	return append(out, trailerMagic[:]...)
}

// write writes the parts to path.
func (p *segmentParts) write(t testing.TB, path string) {
	t.Helper()
	if err := os.WriteFile(path, p.bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// reencode rewrites the column frame of entry ent from its data frame's
// tuples as edit changes them, a string new to the dictionary indexed past
// its end, and returns the edited tuples. The entry is left as it is.
func (p *segmentParts) reencode(t testing.TB, ent int, edit func([]*core.EpisodeTuple) []*core.EpisodeTuple) []*core.EpisodeTuple {
	t.Helper()
	payload, _, err := wal.ParseFrame(p.head[p.foot.Runs[ent].Off:])
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := wal.DecodeRun(payload, p.foot.Dict, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tuples := edit(m.Tuples)
	var dict wal.Dict
	for _, s := range p.foot.Dict {
		dict.Index(s)
	}
	var e wal.Encoder
	p.cols[ent] = appendColumns(nil, &e, tuples, &dict)[wal.FrameHeaderSize:]
	return tuples
}

// firstTupleRun returns the entry of the parts' first tuple run holding a
// tuple.
func (p *segmentParts) firstTupleRun(t testing.TB) int {
	t.Helper()
	for i := range p.foot.Runs {
		if isTupleRun(p.foot.Runs[i].Op) && p.foot.Runs[i].Count > 0 {
			return i
		}
	}
	t.Fatal("no tuple run holds a tuple")
	return -1
}

// columnDamage is one way a column frame can disagree with its segment.
// Each keeps the frame's checksum valid, so only decoding the frame and
// checking it against its entry finds it.
var columnDamage = []struct {
	name   string
	damage func(t testing.TB, p *segmentParts, ent int)
}{
	{"truncated column frame", func(t testing.TB, p *segmentParts, ent int) {
		p.cols[ent] = p.cols[ent][:len(p.cols[ent])-1]
	}},
	{"count off by one", func(t testing.TB, p *segmentParts, ent int) {
		p.reencode(t, ent, func(tps []*core.EpisodeTuple) []*core.EpisodeTuple { return append(tps, tps[len(tps)-1]) })
	}},
	{"dictionary index out of range", func(t testing.TB, p *segmentParts, ent int) {
		p.reencode(t, ent, func(tps []*core.EpisodeTuple) []*core.EpisodeTuple {
			tps[0].Place = &core.Place{ID: "a string the dictionary lacks"}
			return tps
		})
	}},
	{"span disagreement", func(t testing.TB, p *segmentParts, ent int) {
		p.reencode(t, ent, func(tps []*core.EpisodeTuple) []*core.EpisodeTuple {
			tps[0].TimeIn = p.foot.Runs[ent].TimeMin.Add(-time.Second)
			return tps
		})
	}},
	{"entry stop count", func(t testing.TB, p *segmentParts, ent int) { p.foot.Runs[ent].Stops++ }},
	{"entry span", func(t testing.TB, p *segmentParts, ent int) {
		p.foot.Runs[ent].TimeMax = p.foot.Runs[ent].TimeMax.Add(time.Nanosecond)
	}},
}

// TestColumnFrameDamageIsCorrupt pins Open's check of the column frames: a
// segment whose column frame is cut short, counts a tuple more than its
// directory entry, indexes past the dictionary's end, or whose kinds and
// times do not reproduce its entry's stop count and span — the frame or
// the entry changed — is corrupt, at Open and at recovery, and the same
// parts reassembled undamaged open.
func TestColumnFrameDamageIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	populate(t, st, 2, 10)
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	tier.Close()
	paths, _, _, err := listSegmentFiles(dir)
	if err != nil || len(paths) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", paths, err)
	}
	orig, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if again := splitSegment(t, orig).bytes(); !slices.Equal(again, orig) {
		t.Fatal("a segment taken apart and reassembled differs from the file")
	}
	for _, c := range columnDamage {
		p := splitSegment(t, orig)
		c.damage(t, p, p.firstTupleRun(t))
		p.write(t, paths[0])
		if _, err := Open(paths[0]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Open err = %v, want ErrCorrupt", c.name, err)
		}
		if _, _, _, err := Recover(dir, 4); err == nil {
			t.Fatalf("%s: Recover succeeded on a corrupt segment", c.name)
		}
	}
	if err := os.WriteFile(paths[0], orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, tier, _, err := Recover(dir, 4); err != nil {
		t.Fatal(err)
	} else {
		tier.Close()
	}
}
