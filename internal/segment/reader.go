package segment

import (
	"encoding/binary"
	"fmt"
	"sync"

	"semitri/internal/obs"
	"semitri/internal/store"
	"semitri/internal/wal"
)

// Reader is one open, validated segment file. Open verifies the whole file —
// header, trailer, footer CRC and every data frame's CRC — so a torn or
// bit-flipped segment is rejected up front and later decode calls operate on
// known-good bytes, and decodes the footer, its string dictionary included,
// once. Decoding itself stays lazy: runs are materialised one frame at a
// time, on demand, through a pooled cursor, each string an index into the
// dictionary.
type Reader struct {
	path string
	blob wal.Blob
	foot *Footer
}

// cursor is the pooled per-call decode state: the pread frame buffer and
// the memory projected decodes build in. Pooling keeps steady-state cold
// reads allocation-lean — a projected scan reuses one run's tuples for the
// next. It holds no string table: a segment's strings are its footer's
// dictionary, shared by every decode of the segment.
type cursor struct {
	buf    []byte
	tuples wal.TupleBuf
}

var cursorPool = sync.Pool{New: func() any { return &cursor{} }}

func getCursor() *cursor  { return cursorPool.Get().(*cursor) }
func putCursor(c *cursor) { cursorPool.Put(c) }

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
	if off != footOff {
		return corruptf(r.path, "trailing bytes between data frames and footer")
	}
	r.foot = foot
	return nil
}

// Footer exposes the decoded footer (summary + run directory). Immutable
// after Open.
func (r *Reader) Footer() *Footer { return r.foot }

// mutationAt decodes the run frame at off, building only the tuples and
// fields read asks for, and reports the span of all its tuples (see
// wal.DecodeRun). The returned mutation owns its memory (its strings are
// the dictionary's, and the decoder copies payloads out of the frame
// buffer), except that projected tuples live in cur until its next
// projected decode.
func (r *Reader) mutationAt(off int64, cur *cursor, read store.TupleRead) (store.Mutation, wal.Span, error) {
	payload, n, err := r.blob.Frame(off, &cur.buf)
	if err != nil {
		return store.Mutation{}, wal.Span{}, err
	}
	obs.SegmentColdReads.Inc()
	obs.SegmentColdBytes.Add(int64(n))
	return wal.DecodeRun(payload, r.foot.Dict, read, &cur.tuples)
}

// Close releases the mapping or file handle.
func (r *Reader) Close() error { return r.blob.Close() }
