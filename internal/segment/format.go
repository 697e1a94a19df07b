// Package segment is the store's cold tier: immutable, time-partitioned
// binary segment files holding frozen heap tails, plus the Tier that serves
// them back through store.ColdTier.
//
// A segment file reuses the WAL's wire format for its body — the same varint
// mutation codec, the same [u32 length][u32 CRC-32C][payload] framing — so
// the two on-disk formats share one codec and cannot drift apart:
//
//	[8-byte header: magic "STSG" + u32 version]
//	[data frame]*          one framed Mutation per emitted run
//	[footer frame]         framed footer payload (summary + run directory)
//	[8-byte trailer: u32 footer frame size + magic "GSTS"]
//
// The fixed-size trailer makes the footer seekable in O(1): read the last 8
// bytes, step back over the footer frame, parse it like any other frame. The
// footer carries everything recovery and the query planner need without
// decoding the body — per-run directory entries (key, positional range, frame
// offset) and the planner summary (time span, kind counts, per-interpretation
// tuple counts, annotation-key cardinalities, geometry bounds, an object
// bloom filter). Data frames decode lazily, one run at a time.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"semitri/internal/geo"
	"semitri/internal/store"
)

const (
	filePrefix = "seg-"
	fileSuffix = ".seg"
	// headerSize is the file header: 4-byte magic + u32 format version.
	headerSize = 8
	// trailerSize is the fixed tail: u32 footer frame size + 4-byte magic.
	trailerSize = 8
	// footerVersion versions the footer payload independently of the frame
	// codec.
	footerVersion = 1
)

var (
	fileMagic    = [4]byte{'S', 'T', 'S', 'G'}
	trailerMagic = [4]byte{'G', 'S', 'T', 'S'}
)

// formatVersion 2 stores a raw trajectory as a range of its object's record
// run; segments written at another version are refused, not read.
const formatVersion = 2

// ErrCorrupt reports a segment file that does not hold together — a damaged
// header, trailer, footer or data frame. Segments are written with
// temp-file-plus-rename and fsync, so unlike a torn WAL tail this is disk
// corruption, not a crash artifact: recovery fails cleanly rather than
// guessing.
var ErrCorrupt = errors.New("segment: corrupt segment file")

func corruptf(path, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrCorrupt, path, fmt.Sprintf(format, args...))
}

// fileName returns the segment file name for a sequence number.
func fileName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", filePrefix, seq, fileSuffix)
}

// RunMeta is one footer directory entry: which run the data frame at Off
// holds, without decoding it. Start/Count give the run's logical positional
// range; Stops counts stop episodes inside episode runs (so recovery installs
// exact kind totals without decoding).
type RunMeta struct {
	Op     store.MutationOp
	Object string
	Traj   string
	Interp string
	Start  int
	Count  int
	Stops  int
	Off    int64
}

// Footer is a segment's decoded footer: the planner summary plus the run
// directory, in emission (= frame) order.
type Footer struct {
	Summary store.SegmentSummary
	Runs    []RunMeta
}

// isTupleRun reports whether a run holds structured tuples a scan must visit.
func isTupleRun(op store.MutationOp) bool {
	return op == store.MutPutStructured || op == store.MutAppendTuples
}

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendTime appends a time as a presence flag plus varint UnixNano; the
// zero time round-trips exactly.
func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	return binary.AppendVarint(b, t.UnixNano())
}

// appendU64 appends a fixed-width little-endian u64 (float bits, bloom words).
func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// appendCountMap appends a string→int map with sorted keys, so footer bytes
// are deterministic.
func appendCountMap(b []byte, m map[string]int) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, k)
		b = binary.AppendUvarint(b, uint64(m[k]))
	}
	return b
}

// encodeFooter serialises a footer into its frame payload.
func encodeFooter(f *Footer) []byte {
	s := &f.Summary
	b := make([]byte, 0, 256+32*len(f.Runs))
	b = append(b, footerVersion)
	b = appendTime(b, s.TimeMin)
	b = appendTime(b, s.TimeMax)
	b = binary.AppendUvarint(b, uint64(s.Stops))
	b = binary.AppendUvarint(b, uint64(s.Moves))
	b = appendCountMap(b, s.Tuples)
	b = appendCountMap(b, s.AnnKeys)
	b = binary.AppendUvarint(b, uint64(s.GeomCount))
	if s.GeomCount > 0 {
		b = appendU64(b, math.Float64bits(s.GeomBounds.Min.X))
		b = appendU64(b, math.Float64bits(s.GeomBounds.Min.Y))
		b = appendU64(b, math.Float64bits(s.GeomBounds.Max.X))
		b = appendU64(b, math.Float64bits(s.GeomBounds.Max.Y))
	}
	b = binary.AppendUvarint(b, uint64(len(s.Objects.Bits)))
	for _, w := range s.Objects.Bits {
		b = appendU64(b, w)
	}
	b = binary.AppendUvarint(b, uint64(len(f.Runs)))
	for i := range f.Runs {
		r := &f.Runs[i]
		b = append(b, byte(r.Op))
		b = appendString(b, r.Object)
		b = appendString(b, r.Traj)
		b = appendString(b, r.Interp)
		b = binary.AppendUvarint(b, uint64(r.Start))
		b = binary.AppendUvarint(b, uint64(r.Count))
		b = binary.AppendUvarint(b, uint64(r.Stops))
		b = binary.AppendUvarint(b, uint64(r.Off))
	}
	return b
}

// footerDecoder cursors through a footer payload; any malformed read trips
// err and subsequent reads return zero values, so decodeFooter checks once.
type footerDecoder struct {
	b   []byte
	err bool
}

func (d *footerDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *footerDecoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *footerDecoder) byte() byte {
	if len(d.b) < 1 {
		d.err = true
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *footerDecoder) u64() uint64 {
	if len(d.b) < 8 {
		d.err = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// maxFooterSeq bounds any single decoded sequence length against the payload
// size, so a corrupt count cannot drive allocation.
func (d *footerDecoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b))+1 {
		d.err = true
		return 0
	}
	return int(n)
}

func (d *footerDecoder) string() string {
	n := d.count()
	if d.err || len(d.b) < n {
		d.err = true
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *footerDecoder) time() time.Time {
	if d.byte() == 0 {
		return time.Time{}
	}
	return time.Unix(0, d.varint()).UTC()
}

func (d *footerDecoder) countMap() map[string]int {
	n := d.count()
	m := make(map[string]int, n)
	for i := 0; i < n && !d.err; i++ {
		k := d.string()
		m[k] = int(d.uvarint())
	}
	return m
}

// decodeFooter parses a footer frame payload. It never panics on arbitrary
// input; malformed payloads return an error.
func decodeFooter(payload []byte) (*Footer, error) {
	d := &footerDecoder{b: payload}
	if v := d.byte(); v != footerVersion {
		return nil, fmt.Errorf("segment: unsupported footer version %d", v)
	}
	f := &Footer{}
	s := &f.Summary
	s.TimeMin = d.time()
	s.TimeMax = d.time()
	s.Stops = int(d.uvarint())
	s.Moves = int(d.uvarint())
	s.Tuples = d.countMap()
	s.AnnKeys = d.countMap()
	s.GeomCount = int(d.uvarint())
	if s.GeomCount > 0 {
		s.GeomBounds = geo.Rect{
			Min: geo.Pt(math.Float64frombits(d.u64()), math.Float64frombits(d.u64())),
			Max: geo.Pt(math.Float64frombits(d.u64()), math.Float64frombits(d.u64())),
		}
	}
	nw := d.count()
	if nw > 0 {
		s.Objects.Bits = make([]uint64, nw)
		for i := 0; i < nw; i++ {
			s.Objects.Bits[i] = d.u64()
		}
	}
	nr := d.count()
	f.Runs = make([]RunMeta, 0, nr)
	for i := 0; i < nr && !d.err; i++ {
		r := RunMeta{
			Op:     store.MutationOp(d.byte()),
			Object: d.string(),
			Traj:   d.string(),
			Interp: d.string(),
			Start:  int(d.uvarint()),
			Count:  int(d.uvarint()),
			Stops:  int(d.uvarint()),
			Off:    int64(d.uvarint()),
		}
		f.Runs = append(f.Runs, r)
	}
	if d.err {
		return nil, errors.New("segment: malformed footer payload")
	}
	return f, nil
}
