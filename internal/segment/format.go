// Package segment is the store's cold tier: immutable, time-partitioned
// binary segment files holding frozen heap tails, plus the Tier that serves
// them back through store.ColdTier.
//
// A segment file is written and read entirely through the WAL's byte layer
// (internal/wal, frame.go): one codec for the data frames, the column
// frames and the footer, one [u32 length][u32 CRC-32C][payload] frame
// checked by wal.ParseFrame, one frame reader (wal.Blob: a memory map, or
// pread under semitri_nommap), one file header — so the two on-disk
// formats cannot drift apart:
//
//	[8-byte header: magic "STSG" + u32 version]
//	[data frame]*          one framed Mutation per emitted run
//	[column frame]*        one per tuple run, in run order: its tuples'
//	                       kinds, times, place ids and annotation keys and
//	                       values (see columns.go)
//	[footer frame]         framed footer payload (dictionary + run
//	                       directory)
//	[8-byte trailer: u32 footer frame size + magic "GSTS"]
//
// The fixed-size trailer makes the footer seekable in O(1): read the last 8
// bytes, step back over the footer frame, parse it like any other frame. The
// footer carries everything recovery and a scan need without decoding the
// body, at footer version 5:
//
//   - the string dictionary: every distinct string of the data frames, once.
//     A data or column frame writes each of its strings — run header,
//     places, annotation keys, values and sources, episode ids, record
//     object ids — as a varint index into it, and a reader decodes it once
//     at Open, so decoding a string is a bounds-checked index;
//   - the run directory: per run, its key (object, trajectory and
//     interpretation, as dictionary indexes), positional range, stop count
//     and frame offset, and for a tuple run its span (least TimeIn,
//     greatest TimeOut), which lets a scan skip a run without reading its
//     frame, and its column frame's offset.
//
// A tuple run's directory entry is the one pruning fact: no summary of a
// segment as a whole is stored or derived, since a scan reads by key, not
// by segment, and skips each run its entry refutes. Data frames decode
// lazily, one run at a time; a grouped scan reads a tuple run's column
// frame instead and never decodes its data frame. Footers at version 4 (a
// stored summary) and earlier are refused like any other version.
package segment

import (
	"errors"
	"fmt"
	"time"

	"semitri/internal/store"
	"semitri/internal/wal"
)

const (
	filePrefix = "seg-"
	fileSuffix = ".seg"
	// trailerSize is the fixed tail: u32 footer frame size + 4-byte magic.
	trailerSize = 8
	// footerVersion versions the footer payload independently of the file.
	// Version 5 drops the stored planner summary (time span, counts,
	// annotation keys, geometry bounds, object bloom filter); version 4 added the tuple runs'
	// column frames, version 3 the string dictionary the data frames index
	// and the tuple runs' spans, version 2 wrote strings inline, version 1
	// times as UnixNano, which wraps outside 1678–2262. Footers at another
	// version are refused, not read.
	footerVersion = 5
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

// RunMeta is one footer directory entry: which run the data frame at Off
// holds, without decoding it. Start/Count give the run's logical positional
// range; Stops counts the stops inside episode and tuple runs (so recovery
// re-commits exact kind totals without decoding, and a scan knows the
// kinds a run holds). TimeMin and TimeMax are a tuple run's span: its
// tuples' least TimeIn and greatest TimeOut (see wal.Span), and Cols is the
// offset of its column frame.
type RunMeta struct {
	Op               store.MutationOp
	Object           string
	Traj             string
	Interp           string
	Start            int
	Count            int
	Stops            int
	TimeMin, TimeMax time.Time
	Off              int64
	Cols             int64
}

// Footer is a segment's decoded footer: the string dictionary the data
// frames index, and the run directory, in emission (= frame) order.
type Footer struct {
	Dict []string
	Runs []RunMeta
}

// isTupleRun reports whether a run holds structured tuples a scan must visit.
func isTupleRun(op store.MutationOp) bool {
	return op == store.MutPutStructured || op == store.MutAppendTuples
}

// mayHold reports whether the tuple run meta may hold a tuple keep admits
// (see store.TupleFilter.MayHold).
func (meta *RunMeta) mayHold(keep store.TupleFilter) bool {
	return keep.MayHold(meta.Stops, meta.Count-meta.Stops, meta.TimeMin, meta.TimeMax)
}

// encodeFooter serialises a footer into its frame payload through the WAL
// codec's primitives. The dictionary written is f.Dict, a string it
// repeats kept at its first index, with any run key it lacks appended (a
// writer's dictionary holds every run key already).
func encodeFooter(f *Footer) []byte {
	var dict wal.Dict
	for _, str := range f.Dict {
		dict.Index(str)
	}
	for i := range f.Runs {
		dict.Index(f.Runs[i].Object)
		dict.Index(f.Runs[i].Traj)
		dict.Index(f.Runs[i].Interp)
	}
	var e wal.Encoder
	e.U8(footerVersion)
	e.Uv(uint64(len(dict.Strings)))
	for _, str := range dict.Strings {
		e.Str(str)
	}
	e.Uv(uint64(len(f.Runs)))
	for i := range f.Runs {
		r := &f.Runs[i]
		e.U8(byte(r.Op))
		e.Uv(dict.Index(r.Object))
		e.Uv(dict.Index(r.Traj))
		e.Uv(dict.Index(r.Interp))
		e.Uv(uint64(r.Start))
		e.Uv(uint64(r.Count))
		e.Uv(uint64(r.Stops))
		if isTupleRun(r.Op) {
			e.Time(r.TimeMin)
			e.Time(r.TimeMax)
			e.Uv(uint64(r.Cols))
		}
		e.Uv(uint64(r.Off))
	}
	return e.Bytes()
}

// decodeFooter parses a footer frame payload through the WAL codec's
// primitives, whose bounded Count caps every sequence length by the bytes
// left. It never panics on arbitrary input; a malformed payload, or one at
// another footer version, returns an error.
func decodeFooter(payload []byte) (*Footer, error) {
	d := wal.NewDecoder(payload)
	if v := d.U8(); v != footerVersion {
		return nil, fmt.Errorf("segment: unsupported footer version %d", v)
	}
	f := &Footer{}
	f.Dict = make([]string, d.Count(1)) // a length byte
	for i := range f.Dict {
		f.Dict[i] = d.Str()
	}
	d.SetDict(f.Dict)
	f.Runs = make([]RunMeta, d.Count(8)) // an op byte, three indexes, four varints
	for i := range f.Runs {
		r := &f.Runs[i]
		*r = RunMeta{
			Op:     store.MutationOp(d.U8()),
			Object: d.Str(),
			Traj:   d.Str(),
			Interp: d.Str(),
			Start:  int(d.Uv()),
			Count:  int(d.Uv()),
			Stops:  int(d.Uv()),
		}
		if isTupleRun(r.Op) {
			r.TimeMin = d.Time()
			r.TimeMax = d.Time()
			r.Cols = int64(d.Uv())
		}
		r.Off = int64(d.Uv())
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("segment: malformed footer payload: %w", err)
	}
	return f, nil
}
