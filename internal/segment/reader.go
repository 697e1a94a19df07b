package segment

import (
	"encoding/binary"
	"fmt"
	"sync"

	"semitri/internal/core"
	"semitri/internal/obs"
	"semitri/internal/store"
	"semitri/internal/wal"
)

// Reader is one open, validated segment file. Open verifies the whole file —
// header, trailer, footer CRC, every data frame's CRC and every column
// frame's CRC and contents — so a torn or bit-flipped segment is rejected
// up front and later decode calls operate on known-good bytes, and decodes
// the footer, its string dictionary included, once. Decoding itself stays
// lazy: runs are materialised one frame at a time, on demand, through a
// pooled cursor, each string an index into the dictionary.
type Reader struct {
	path string
	blob wal.Blob
	foot *Footer
	// sum is the segment's summary, folded from the directory at Open.
	sum store.SegmentSummary
}

// cursor is the pooled per-call decode state: the pread frame buffer, the
// positions a keyed read wants of a run, the memory column frames decode
// into, and the frames read through it. Pooling keeps steady-state cold
// reads allocation-lean — a projected scan reuses one run's tuples for the
// next. It holds no string table: a segment's strings are its footer's
// dictionary, shared by every decode of the segment.
type cursor struct {
	buf  []byte
	want []bool
	cols columns
	// frames and bytes count the data frames decoded and their sizes, and
	// colFrames the column frames read, since the cursor was taken.
	frames, bytes, colFrames int64
}

var cursorPool = sync.Pool{New: func() any { return &cursor{} }}

func getCursor() *cursor { return cursorPool.Get().(*cursor) }

// putCursor returns c to the pool, adding the frames it read to the shared
// counters once, for the whole call that took it, rather than once per
// frame from every scan worker.
func putCursor(c *cursor) {
	if c.frames > 0 {
		obs.SegmentColdReads.Add(c.frames)
		obs.SegmentColdBytes.Add(c.bytes)
	}
	if c.colFrames > 0 {
		obs.SegmentColumnReads.Add(c.colFrames)
	}
	c.frames, c.bytes, c.colFrames = 0, 0, 0
	cursorPool.Put(c)
}

// Open opens and fully validates a segment file.
func Open(path string) (*Reader, error) {
	b, err := wal.OpenBlob(path)
	if err != nil {
		return nil, err
	}
	r := &Reader{path: path, blob: b}
	if err := r.validate(); err != nil {
		b.Close()
		return nil, err
	}
	return r, nil
}

// validate checks the file end to end and decodes the footer.
func (r *Reader) validate() error {
	sz := r.blob.Size()
	if sz < wal.FileHeaderSize+wal.FrameHeaderSize+trailerSize {
		return corruptf(r.path, "file too short (%d bytes)", sz)
	}
	cur := getCursor()
	defer putCursor(cur)

	// Header and trailer first: both are fixed-size probes.
	if err := wal.CheckFileHeader(r.blob, r.path, "segment", fileMagic, formatVersion); err == wal.ErrFrame {
		return corruptf(r.path, "bad header")
	} else if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	tr, err := r.blob.Bytes(sz-trailerSize, trailerSize, &cur.buf)
	if err != nil {
		return corruptf(r.path, "unreadable trailer")
	}
	if [4]byte(tr[4:8]) != trailerMagic {
		return corruptf(r.path, "bad trailer magic")
	}
	footSize := int64(binary.LittleEndian.Uint32(tr[0:4]))
	footOff := sz - trailerSize - footSize
	if footSize < wal.FrameHeaderSize || footOff < wal.FileHeaderSize {
		return corruptf(r.path, "impossible footer size %d", footSize)
	}
	payload, n, err := r.blob.Frame(footOff, &cur.buf)
	if err != nil || int64(n) != footSize {
		return corruptf(r.path, "footer frame checksum mismatch")
	}
	if len(payload) > 0 && payload[0] != footerVersion {
		// A footer another release wrote: refused like a file at another
		// format version, not reported as damage.
		return fmt.Errorf("segment: %w", wal.CheckVersion(r.path, "segment footer", uint32(payload[0]), footerVersion))
	}
	foot, err := decodeFooter(payload)
	if err != nil {
		return corruptf(r.path, "%v", err)
	}

	// Scrub every data frame's CRC and check the directory lines up with the
	// physical frames one to one.
	off := int64(wal.FileHeaderSize)
	for i := range foot.Runs {
		if foot.Runs[i].Off != off {
			return corruptf(r.path, "run %d offset %d, frame found at %d", i, foot.Runs[i].Off, off)
		}
		_, n, err := r.blob.Frame(off, &cur.buf)
		if err != nil {
			return corruptf(r.path, "data frame at %d fails checksum", off)
		}
		// Every element of a run takes a byte of its frame at least, so a
		// count past the frame's size is damage (a trajectory's count is a
		// range over its object's records, checked at recovery).
		if meta := &foot.Runs[i]; meta.Op != store.MutPutTrajectory && meta.Count > n {
			return corruptf(r.path, "run %d counts %d elements in a %d-byte frame", i, meta.Count, n)
		}
		off += int64(n)
	}
	// Then the column frames, one per tuple run in directory order, each
	// decoded and checked against its entry: a projected scan reads only
	// the column frame, so it must hold what the entry describes.
	for i := range foot.Runs {
		meta := &foot.Runs[i]
		if !isTupleRun(meta.Op) {
			continue
		}
		if meta.Cols != off {
			return corruptf(r.path, "run %d column frame at %d, frame found at %d", i, meta.Cols, off)
		}
		payload, n, err := r.blob.Frame(off, &cur.buf)
		if err != nil {
			return corruptf(r.path, "column frame at %d fails checksum", off)
		}
		var span wal.Span
		tuples, err := cur.cols.decode(payload, foot.Dict, nil, nil, &span)
		if err != nil || len(tuples) != meta.Count || span != (wal.Span{Stops: meta.Stops, Min: meta.TimeMin, Max: meta.TimeMax}) {
			return corruptf(r.path, "column frame at %d does not hold run %d", off, i)
		}
		off += int64(n)
	}
	if off != footOff {
		return corruptf(r.path, "trailing bytes between frames and footer")
	}
	r.foot, r.sum = foot, summarise(foot.Runs)
	return nil
}

// Footer exposes the decoded footer (dictionary + run directory).
// Immutable after Open.
func (r *Reader) Footer() *Footer { return r.foot }

// mutationAt decodes the run frame at off, building of a tuple run only the
// tuples keep and want select, and reports the span of all its tuples (see
// wal.DecodeRun). The returned mutation owns its memory: its strings are
// the dictionary's, and the decoder copies payloads out of the frame.
func (r *Reader) mutationAt(off int64, cur *cursor, keep store.TupleFilter, want []bool) (store.Mutation, wal.Span, error) {
	payload, n, err := r.blob.Frame(off, &cur.buf)
	if err != nil {
		return store.Mutation{}, wal.Span{}, err
	}
	cur.frames++
	cur.bytes += int64(n)
	return wal.DecodeRun(payload, r.foot.Dict, keep, want)
}

// columnsAt decodes the column frame at off into cur, building the tuples
// read keeps as read projects them (see columns.decode). The tuples live
// in cur until its next column decode. Under a memory map the frame is
// read in place, never copied.
func (r *Reader) columnsAt(off int64, cur *cursor, read store.TupleRead) ([]*core.EpisodeTuple, error) {
	payload, _, err := r.blob.Frame(off, &cur.buf)
	if err != nil {
		return nil, err
	}
	cur.colFrames++
	return cur.cols.decode(payload, r.foot.Dict, read.Keep, read.Project, nil)
}

// Close releases the mapping or file handle.
func (r *Reader) Close() error { return r.blob.Close() }
