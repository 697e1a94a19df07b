package wal

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"semitri/internal/geo"
	"semitri/internal/gps"
	"semitri/internal/store"
)

// TestTornTailProperty is the crash-damage property test: it builds a
// multi-segment log whose i-th frame appends the record with sequence
// number i, then repeatedly truncates a copy of the log at a random byte
// offset or flips a random byte, recovers, and asserts that replay kept
// exactly the fully committed frames before the damage, dropped only the
// tail behind it, and never panicked.
func TestTornTailProperty(t *testing.T) {
	const frames = 120
	src := t.TempDir()
	l, err := Open(Options{Dir: src, FlushInterval: time.Hour, SegmentSize: 2048, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	live := store.New()
	live.AttachLog(l)
	for i := 0; i < frames; i++ {
		live.PutRecords([]gps.Record{{ObjectID: "obj", Position: geo.Pt(float64(i), 0), Time: ts(i)}})
		// Per-frame sync keeps segment boundaries between frames, so every
		// frame lands whole in exactly one segment.
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want a multi-segment log, got %d segments", len(segs))
	}

	// Map every byte of the log to the number of frames that replay intact
	// when that byte is the first damaged one: all frames of earlier
	// segments plus the frames of this segment that end strictly before it.
	type segLayout struct {
		path   string
		size   int64
		bounds []int64 // end offset of each frame in the segment
		before int     // frames in earlier segments
	}
	var layout []segLayout
	total := 0
	for _, seg := range segs {
		sl := segLayout{path: seg.Path, before: total}
		data, err := os.ReadFile(seg.Path)
		if err != nil {
			t.Fatal(err)
		}
		sl.size = int64(len(data))
		off := int64(headerSize)
		for off+frameHeaderSize <= sl.size {
			n := int64(binary.LittleEndian.Uint32(data[off:]))
			end := off + frameHeaderSize + n
			if end > sl.size {
				break
			}
			sl.bounds = append(sl.bounds, end)
			off = end
		}
		total += len(sl.bounds)
		layout = append(layout, sl)
	}
	if total != frames {
		t.Fatalf("layout scan found %d frames, wrote %d", total, frames)
	}

	// expectFrames returns the surviving frame count when the first damaged
	// byte of segment si sits at offset off (header bytes damage the whole
	// segment).
	expectFrames := func(si int, off int64) int {
		sl := layout[si]
		n := sl.before
		for _, end := range sl.bounds {
			if end <= off {
				n++
			} else {
				break
			}
		}
		if off < headerSize {
			n = sl.before
		}
		return n
	}

	check := func(t *testing.T, dir string, want int, mustTorn bool) {
		rec, stats, err := Recover(dir, 0)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		recs := rec.Records("obj")
		if len(recs) != want {
			t.Fatalf("recovered %d records, want %d (stats %+v)", len(recs), want, stats)
		}
		for i, r := range recs {
			if r.Position.X != float64(i) {
				t.Fatalf("record %d out of sequence: %+v", i, r)
			}
		}
		if mustTorn && !stats.Torn {
			t.Fatalf("damage dropped frames but stats.Torn is false: %+v", stats)
		}
	}

	// frameBoundary reports whether offset off of segment si is the clean
	// end of a frame (or the segment header): a truncation there leaves a
	// cleanly-ended segment with no physically detectable tear.
	frameBoundary := func(si int, off int64) bool {
		if off == headerSize || off == layout[si].size {
			return true
		}
		for _, end := range layout[si].bounds {
			if end == off {
				return true
			}
		}
		return false
	}

	copyLog := func(t *testing.T) string {
		dir := t.TempDir()
		for _, sl := range layout {
			data, err := os.ReadFile(sl.path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(sl.path)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}

	rng := rand.New(rand.NewSource(7))
	t.Run("truncate", func(t *testing.T) {
		for trial := 0; trial < 60; trial++ {
			si := rng.Intn(len(layout))
			cut := rng.Int63n(layout[si].size + 1)
			dir := copyLog(t)
			target := filepath.Join(dir, filepath.Base(layout[si].path))
			if err := os.Truncate(target, cut); err != nil {
				t.Fatal(err)
			}
			// Truncation keeps the frames that still end within the file;
			// anything in later segments is behind the tear and dropped.
			for _, sl := range layout[si+1:] {
				if err := os.Remove(filepath.Join(dir, filepath.Base(sl.path))); err != nil {
					t.Fatal(err)
				}
			}
			check(t, dir, expectFrames(si, cut), !frameBoundary(si, cut))
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for trial := 0; trial < 60; trial++ {
			si := rng.Intn(len(layout))
			dir := copyLog(t)
			target := filepath.Join(dir, filepath.Base(layout[si].path))
			data, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			off := rng.Intn(len(data))
			data[off] ^= byte(1 + rng.Intn(255))
			if err := os.WriteFile(target, data, 0o644); err != nil {
				t.Fatal(err)
			}
			// A flipped byte inside frame j stops replay at j; every frame
			// before it (in this and earlier segments) survives, everything
			// after is dropped.
			check(t, dir, expectFrames(si, int64(off)), true)
		}
	})
	t.Run("clean", func(t *testing.T) {
		check(t, copyLog(t), frames, false)
	})
}

// TestTornFinalFrameMidFlush simulates the canonical crash: the last frame
// of the last segment is half-written. Recovery must keep everything else.
func TestTornFinalFrameMidFlush(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, FlushInterval: time.Hour, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	live := store.New()
	live.AttachLog(l)
	for i := 0; i < 10; i++ {
		live.PutRecords([]gps.Record{{ObjectID: "obj", Position: geo.Pt(float64(i), 0), Time: ts(i)}})
		// Each PutRecords is one frame, so the torn tail below is exactly
		// one record.
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1].Path
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	rec, stats, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Torn {
		t.Fatalf("expected torn stats, got %+v", stats)
	}
	if got := len(rec.Records("obj")); got != 9 {
		t.Fatalf("recovered %d records, want 9", got)
	}
	// Recovery repaired the tear, so a reopened log's fresh segment is not
	// stranded behind old damage: re-appending the lost record and
	// recovering again must see all 10.
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec.AttachLog(l2)
	rec.PutRecords([]gps.Record{{ObjectID: "obj", Position: geo.Pt(9, 0), Time: ts(9)}})
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, stats2, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Torn {
		t.Fatalf("second recovery still sees a tear: %+v", stats2)
	}
	if got := len(rec2.Records("obj")); got != 10 {
		t.Fatalf("post-repair recovery got %d records, want 10", got)
	}
}

// TestTornFrameLengthPastEOF appends a frame header claiming a payload of
// nearly maxFrame bytes, followed by a short tail, to a one-frame log: the
// length runs past the end of the file, so recovery keeps the committed
// frame, reports the tear and never sizes a buffer from the bogus length.
func TestTornFrameLengthPastEOF(t *testing.T) {
	recs := []gps.Record{
		{ObjectID: "obj", Position: geo.Pt(1, 2), Time: ts(0)},
		{ObjectID: "obj", Position: geo.Pt(3, 4), Time: ts(1)},
	}
	var bogus [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(bogus[0:], maxFrame-1)
	body := AppendMutationFrame(nil, store.Mutation{Op: store.MutPutRecords, ObjectID: "obj", Records: recs}, nil)
	body = append(append(body, bogus[:]...), make([]byte, 10)...)
	data := segmentBytes(body)
	dir := t.TempDir()
	var (
		rec   *store.Store
		stats RecoverStats
	)
	// Recovery truncates the tear, so every measured call starts from the
	// damaged file.
	allocated := allocatedBy(func() {
		if err := os.WriteFile(segmentPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var err error
		if rec, stats, err = Recover(dir, 0); err != nil {
			t.Fatal(err)
		}
	})
	if got := len(rec.Records("obj")); got != len(recs) || !stats.Torn {
		t.Fatalf("recovered %d records (stats %+v), want %d and a tear", got, stats, len(recs))
	}
	if allocated >= 1<<20 {
		t.Fatalf("recovering a %d-byte log allocated %d B, want < 1 MiB", len(data), allocated)
	}
}

// TestRecoverRefusesOtherFormatVersion pins that a log written at another
// format version — the previous one or a later one — is refused with an
// error naming the file and both versions, and that the refusal leaves the
// directory byte-for-byte untouched: repairing it as a torn header would
// delete that log and quarantine every later one. A short header stays a
// tear (TestTornTailProperty truncates into it).
func TestRecoverRefusesOtherFormatVersion(t *testing.T) {
	frame := AppendMutationFrame(nil, testMutations()[0], nil)
	for _, v := range []uint32{formatVersion - 1, formatVersion + 1} {
		dir := t.TempDir()
		old := segmentPath(dir, 1)
		if err := os.WriteFile(old, append(AppendFileHeader(nil, segmentMagic, v), frame...), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segmentPath(dir, 2), append(AppendFileHeader(nil, segmentMagic, formatVersion), frame...), 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirContents(t, dir)
		_, _, err := Recover(dir, 0)
		if err == nil {
			t.Fatalf("version %d: recovered a log at another format version", v)
		}
		for _, want := range []string{old, fmt.Sprintf("version %d", v), fmt.Sprintf("version %d", formatVersion)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("version %d: error %q does not name %q", v, err, want)
			}
		}
		if after := dirContents(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("version %d: refused recovery changed the directory: %d files -> %d", v, len(before), len(after))
		}
	}
}

// dirContents maps every file name in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}
