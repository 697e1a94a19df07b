package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/gps"
	"semitri/internal/store"
)

// crcTable is the frame checksum polynomial: Castagnoli, which Go computes
// with the SSE4.2/ARMv8 CRC instructions — an order of magnitude faster
// than the software IEEE table on the per-record hot path.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameCRC is the checksum stored in every frame header.
func frameCRC(payload []byte) uint32 { return crc32.Checksum(payload, crcTable) }

// The codec: a compact little-endian binary encoding of store.Mutation
// (and, through the exported primitives of Encoder and Decoder, of the
// segment footer — one codec for every durable byte), hand-rolled so the
// streaming hot path pays a handful of byte appends per record instead of
// a reflective marshal. Strings are varint-length-prefixed in the log and
// varint indexes into the segment's string dictionary in a segment's data
// frames (see Dict), counts and non-negative integers are unsigned
// LEB128 varints (WAL volume directly prices the fsync a group commit
// pays, so every elided byte matters), floats are raw IEEE-754 bits (exact
// round trip, including ±Inf from empty rects), times are a presence byte
// plus varint Unix seconds and nanoseconds (restored in UTC — instants
// round-trip exactly, zone names are not preserved).
//
// Decoding never trusts the input: every read is bounds-checked, element
// counts are capped by the bytes remaining, and a payload that does not
// consume exactly its frame is corrupt. The torn-tail property test feeds
// random truncations and bit flips through this path.

// errCorrupt reports a payload that is not a valid mutation encoding.
var errCorrupt = errors.New("wal: corrupt frame payload")

// Encoder appends the codec's primitives to a byte slice; the zero value
// starts an empty one.
type Encoder struct {
	b []byte
	// dict, when set, is where Str writes its strings: a string becomes a
	// varint index into it. Nil writes them inline.
	dict *Dict
}

// Dict is a string dictionary as an encoder builds it: each distinct string
// takes the next index, in order of first use. A segment writes one for all
// of its data frames and stores it in its footer.
type Dict struct {
	index   map[string]uint64
	Strings []string
}

// Index returns s's index, adding s when it is new.
func (d *Dict) Index(s string) uint64 {
	if i, ok := d.index[s]; ok {
		return i
	}
	if d.index == nil {
		d.index = map[string]uint64{}
	}
	i := uint64(len(d.Strings))
	d.index[s] = i
	d.Strings = append(d.Strings, s)
	return i
}

// Bytes returns the encoding so far.
func (e *Encoder) Bytes() []byte { return e.b }

// Reset empties the encoding, keeping its buffer for the next one.
func (e *Encoder) Reset() { e.b = e.b[:0] }

func (e *Encoder) U8(v byte)     { e.b = append(e.b, v) }
func (e *Encoder) U64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Uv appends an unsigned LEB128 varint.
func (e *Encoder) Uv(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Iv appends a zigzag-encoded signed varint.
func (e *Encoder) Iv(v int64) { e.b = binary.AppendVarint(e.b, v) }

// Str appends a string: its index in the encoder's dictionary when it has
// one, and otherwise its varint length and its bytes.
func (e *Encoder) Str(s string) {
	if e.dict != nil {
		e.Uv(e.dict.Index(s))
		return
	}
	e.Uv(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *Encoder) Time(t time.Time) {
	if t.IsZero() {
		e.U8(0)
		return
	}
	e.U8(1)
	e.Iv(t.Unix())
	e.Uv(uint64(t.Nanosecond()))
}

func (e *Encoder) Point(p geo.Point) { e.F64(p.X); e.F64(p.Y) }
func (e *Encoder) Rect(r geo.Rect)   { e.Point(r.Min); e.Point(r.Max) }

// Record time-encoding flags: batches delta-encode timestamps against the
// previous record (GPS fixes arrive seconds apart, so the delta is one or
// two varint bytes against eight-plus for an absolute stamp).
const (
	recTimeZero  = 0 // zero time
	recTimeAbs   = 1 // absolute: varint sec + varint nsec
	recTimeDelta = 2 // varint sec delta from previous record + varint nsec
)

// records encodes a record batch belonging to owner. Records virtually
// always carry the owning object's id, so it is elided per record (a flag
// byte) and only stored for the odd record that differs; timestamps after
// the first encode as deltas.
func (e *Encoder) records(owner string, recs []gps.Record) {
	e.Uv(uint64(len(recs)))
	var prevSec int64
	havePrev := false
	for _, r := range recs {
		if r.ObjectID == owner {
			e.U8(0)
		} else {
			e.U8(1)
			e.Str(r.ObjectID)
		}
		e.Point(r.Position)
		switch {
		case r.Time.IsZero():
			e.U8(recTimeZero)
		case havePrev:
			sec := r.Time.Unix()
			e.U8(recTimeDelta)
			e.Iv(sec - prevSec)
			e.Uv(uint64(r.Time.Nanosecond()))
			prevSec = sec
		default:
			e.U8(recTimeAbs)
			e.Iv(r.Time.Unix())
			e.Uv(uint64(r.Time.Nanosecond()))
			prevSec, havePrev = r.Time.Unix(), true
		}
	}
}

func (e *Encoder) episode(ep *episode.Episode) {
	e.Str(ep.TrajectoryID)
	e.Str(ep.ObjectID)
	e.U8(byte(ep.Kind))
	e.Uv(uint64(ep.StartIdx))
	e.Uv(uint64(ep.EndIdx))
	e.Time(ep.Start)
	e.Time(ep.End)
	e.Point(ep.Center)
	e.Rect(ep.Bounds)
	e.F64(ep.AvgSpeed)
	e.F64(ep.MaxSpeed)
	e.F64(ep.Distance)
	e.Uv(uint64(ep.RecordCount))
}

func (e *Encoder) episodes(eps []*episode.Episode) {
	e.Uv(uint64(len(eps)))
	for _, ep := range eps {
		e.episode(ep)
	}
}

func (e *Encoder) place(p *core.Place) {
	if p == nil {
		e.U8(0)
		return
	}
	e.U8(1)
	e.Str(p.ID)
	e.U8(byte(p.Kind))
	e.Str(p.Name)
	e.Str(p.Category)
	e.Rect(p.Extent)
}

func (e *Encoder) annotations(anns []core.Annotation) {
	e.Uv(uint64(len(anns)))
	for _, a := range anns {
		e.Str(a.Key)
		e.Str(a.Value)
		e.F64(a.Confidence)
		e.Str(a.Source)
	}
}

func (e *Encoder) tuples(tuples []*core.EpisodeTuple) {
	e.Uv(uint64(len(tuples)))
	for _, tp := range tuples {
		e.U8(byte(tp.Kind))
		e.place(tp.Place)
		e.Time(tp.TimeIn)
		e.Time(tp.TimeOut)
		e.annotations(tp.Annotations.All())
		if tp.Episode == nil {
			e.U8(0)
		} else {
			e.U8(1)
			e.episode(tp.Episode)
		}
	}
}

// encodeMutation appends the payload encoding of m to e.
func encodeMutation(e *Encoder, m store.Mutation) {
	e.U8(byte(m.Op))
	e.Str(m.ObjectID)
	e.Str(m.TrajectoryID)
	e.Str(m.Interpretation)
	e.Uv(uint64(m.Start))
	switch m.Op {
	case store.MutPutRecords:
		e.records(m.ObjectID, m.Records)
	case store.MutPutTrajectory:
		e.Uv(uint64(m.Count)) // with Start, the range of the object's records
	case store.MutPutEpisodes, store.MutAppendEpisodes:
		e.episodes(m.Episodes)
	case store.MutPutStructured, store.MutAppendTuples:
		e.tuples(m.Tuples)
	case store.MutMergeTuple:
		e.place(m.Place)
		e.annotations(m.Annotations)
	}
}

// Decoder reads the codec's primitives back. A failed read records
// errCorrupt and every later read returns a zero value, so a caller checks
// Err once at the end.
type Decoder struct {
	b   []byte
	off int
	err error
	// dict, when set, is where every string read comes from: the payload
	// holds a varint index into it, bounds-checked (see SetDict).
	dict []string
	// interned deduplicates strings decoded inline across frames (see
	// strShared). Nil disables interning.
	interned map[string]string
	// span accumulates the kinds and times of every tuple a run holds, kept
	// or refused (see tuples).
	span Span
	// discard makes the element readers check and skip what they read
	// without building it: no allocation, no intern probe.
	discard bool
	// keep and want select the tuples a run decode builds (see tuples).
	keep store.TupleFilter
	want []bool
}

// maxInterned bounds the intern table so a log full of unique strings (or a
// crafted one) cannot grow it without limit; once full, later misses simply
// allocate as before.
const maxInterned = 1 << 16

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// SetDict makes every later string read an index into dict (see Str). A
// nil dict reads strings inline again.
func (d *Decoder) SetDict(dict []string) { d.dict = dict }

// Reset readies d to decode b from its start, its strings inline: a
// decoder kept across payloads decodes each without an allocation.
func (d *Decoder) Reset(b []byte) { *d = Decoder{b: b} }

// Err returns the first failed read's error, or errCorrupt when bytes are
// left over: an encoding must be consumed exactly.
func (d *Decoder) Err() error {
	if d.err == nil && d.off != len(d.b) {
		d.fail()
	}
	return d.err
}

// fail records errCorrupt and moves d to the payload's end, where every
// later read fails too.
func (d *Decoder) fail() {
	if d.err == nil {
		d.err = errCorrupt
	}
	d.off = len(d.b)
}

// Fail records a value the caller found invalid: the decode fails like
// one that read past the payload's end.
func (d *Decoder) Fail() { d.fail() }

// Failed reports whether a read has failed so far. Unlike Err, it does not
// ask that the payload be consumed.
func (d *Decoder) Failed() bool { return d.err != nil }

func (d *Decoder) remaining() int { return len(d.b) - d.off }

func (d *Decoder) U8() byte {
	if d.err != nil || d.remaining() < 1 {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *Decoder) U64() uint64 {
	if d.err != nil || d.remaining() < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Uv reads an unsigned LEB128 varint.
func (d *Decoder) Uv() uint64 {
	// Values of one and two bytes — counts, kinds, dictionary indexes —
	// are most of what a payload holds, and decode without a loop. A failed
	// decoder stands at the payload's end (see fail), so it takes neither
	// path.
	if b := d.b[min(d.off, len(d.b)):]; len(b) > 0 && b[0] < 0x80 {
		d.off++
		return uint64(b[0])
	} else if len(b) > 1 && b[1] < 0x80 {
		d.off += 2
		return uint64(b[0]&0x7f) | uint64(b[1])<<7
	}
	return d.uvLong()
}

// uvLong is Uv past its one- and two-byte cases.
func (d *Decoder) uvLong() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Iv reads a zigzag-encoded signed varint.
func (d *Decoder) Iv() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// raw reads a string's bytes, aliasing the payload.
func (d *Decoder) raw() []byte {
	n := int(d.Uv())
	if d.err != nil || n < 0 || n > d.remaining() {
		d.fail()
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// Str reads a string: the dictionary's entry at the index the payload
// holds when the decoder has a dictionary (an index past its end is
// corrupt), and otherwise a length-prefixed string copied out of the
// payload.
func (d *Decoder) Str() string { return d.str(true) }

// strShared reads a string the element readers build. Inline, it decodes
// through the intern table: the many repeats of low-cardinality strings in
// a log — object and trajectory ids, interpretation names, annotation keys
// and sources, place metadata — decode to one shared backing string instead
// of one heap copy per frame. The map[string(bytes)] probe compiles to a
// no-allocation lookup; only a miss pays for the copy. A dictionary entry
// is shared already, and costs an index. In discard mode it only checks the
// string.
func (d *Decoder) strShared() string { return d.str(!d.discard) }

// str is strShared when build is set, and checks and skips the string
// otherwise.
func (d *Decoder) str(build bool) string {
	if d.dict != nil {
		i := d.Uv()
		if d.err != nil || i >= uint64(len(d.dict)) {
			d.fail()
			return ""
		}
		return d.dict[i]
	}
	b := d.raw()
	if !build || d.err != nil {
		return ""
	}
	if s, ok := d.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.interned != nil && len(d.interned) < maxInterned {
		d.interned[s] = s
	}
	return s
}

// Count reads an element count and rejects values that could not possibly
// fit in the remaining bytes (elemMin is a conservative lower bound on one
// element's encoding), bounding allocations on corrupt input. The division
// form avoids the n*elemMin overflow a crafted huge count would exploit.
func (d *Decoder) Count(elemMin int) int {
	n := int(d.Uv())
	if d.err != nil || n < 0 || n > d.remaining()/elemMin {
		d.fail()
		return 0
	}
	return n
}

// position reads a record, episode or tuple position (or count), bounded so
// that position arithmetic cannot overflow.
func (d *Decoder) position() int {
	v := d.Uv()
	if v > uint64(math.MaxInt32)<<16 {
		d.fail()
	}
	return int(v)
}

func (d *Decoder) Time() time.Time {
	if d.U8() == 0 {
		return time.Time{}
	}
	sec := d.Iv()
	nsec := d.Uv()
	if d.err != nil || nsec >= 1e9 {
		d.fail()
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

func (d *Decoder) Point() geo.Point { return geo.Point{X: d.F64(), Y: d.F64()} }
func (d *Decoder) Rect() geo.Rect   { return geo.Rect{Min: d.Point(), Max: d.Point()} }

func (d *Decoder) records(owner string) []gps.Record {
	n := d.Count(1 + 16 + 1)
	if d.err != nil || n == 0 {
		return nil
	}
	recs := make([]gps.Record, 0, n)
	var prevSec int64
	havePrev := false
	for i := 0; i < n && d.err == nil; i++ {
		obj := owner
		if d.U8() == 1 {
			obj = d.strShared()
		}
		pos := d.Point()
		var t time.Time
		switch d.U8() {
		case recTimeZero:
		case recTimeAbs:
			sec := d.Iv()
			nsec := d.Uv()
			if nsec >= 1e9 {
				d.fail()
				break
			}
			t = time.Unix(sec, int64(nsec)).UTC()
			prevSec, havePrev = sec, true
		case recTimeDelta:
			if !havePrev {
				d.fail()
				break
			}
			sec := prevSec + d.Iv()
			nsec := d.Uv()
			if nsec >= 1e9 {
				d.fail()
				break
			}
			t = time.Unix(sec, int64(nsec)).UTC()
			prevSec = sec
		default:
			d.fail()
		}
		if d.err != nil {
			break
		}
		recs = append(recs, gps.Record{ObjectID: obj, Position: pos, Time: t})
	}
	return recs
}

func (d *Decoder) episode() *episode.Episode {
	if d.discard {
		d.episodeValue()
		return nil
	}
	ep := d.episodeValue()
	return &ep
}

func (d *Decoder) episodeValue() episode.Episode {
	ep := episode.Episode{
		TrajectoryID: d.strShared(),
		ObjectID:     d.strShared(),
		Kind:         episode.Kind(d.U8()),
		StartIdx:     int(d.Uv()),
		EndIdx:       int(d.Uv()),
		Start:        d.Time(),
		End:          d.Time(),
		Center:       d.Point(),
		Bounds:       d.Rect(),
		AvgSpeed:     d.F64(),
		MaxSpeed:     d.F64(),
		Distance:     d.F64(),
		RecordCount:  int(d.Uv()),
	}
	if ep.Kind != episode.Stop && ep.Kind != episode.Move {
		d.fail()
	}
	return ep
}

func (d *Decoder) episodes() []*episode.Episode {
	n := d.Count(8 + 8 + 1 + 16 + 2)
	if d.err != nil || n == 0 {
		return nil
	}
	eps := make([]*episode.Episode, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		eps = append(eps, d.episode())
	}
	return eps
}

// place reads a place link.
func (d *Decoder) place() *core.Place {
	if d.U8() == 0 {
		return nil
	}
	p := core.Place{ID: d.strShared(), Kind: core.PlaceKind(d.U8()), Name: d.strShared(), Category: d.strShared(), Extent: d.Rect()}
	if p.Kind != core.RegionPlace && p.Kind != core.LinePlace && p.Kind != core.PointPlace {
		d.fail()
	}
	if d.discard {
		return nil
	}
	built := p // p itself stays on the stack when nothing is built
	return &built
}

func (d *Decoder) annotations() []core.Annotation {
	n := d.Count(1 + 1 + 8 + 1) // three empty strings and the confidence
	if d.err != nil || n == 0 {
		return nil
	}
	var anns []core.Annotation
	if !d.discard {
		anns = make([]core.Annotation, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		a := core.Annotation{Key: d.strShared(), Value: d.strShared(), Confidence: d.F64(), Source: d.strShared()}
		if !d.discard {
			anns = append(anns, a)
		}
	}
	return anns
}

// tuples decodes a tuple run, building only the tuples d.want and d.keep
// select (every one when both are nil): the tuple at run position i when
// want is nil or want[i] is set (a position past want's end is not
// wanted), and keep is nil or admits its kind and times, which a tuple
// encodes before its place. The entry of a tuple not built is nil, its
// place, annotations and episode checked and skipped without being built.
// Whether the run decodes depends on neither.
func (d *Decoder) tuples() []*core.EpisodeTuple {
	n := d.Count(1 + 1 + 1 + 1 + 1 + 1) // kind, no place, zero times, no annotations, no episode
	if d.err != nil || n == 0 {
		return nil
	}
	tuples := make([]*core.EpisodeTuple, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		kind := episode.Kind(d.U8())
		at := d.off
		wanted := d.want == nil || i < len(d.want) && d.want[i]
		d.discard = !wanted || d.keep != nil
		place := d.place()
		in, out := d.Time(), d.Time()
		if d.err != nil || kind != episode.Stop && kind != episode.Move {
			d.fail()
			break
		}
		d.span.Add(i, kind, in, out)
		if !wanted || d.keep != nil && !d.keep(kind, in, out) {
			d.discard = true
			d.annotations()
			if d.U8() == 1 {
				d.episode()
			}
			d.discard = false
			tuples = append(tuples, nil)
			continue
		}
		if d.discard {
			d.discard = false
			end := d.off
			d.off = at
			place = d.place()
			d.off = end
		}
		tp := &core.EpisodeTuple{Kind: kind, Place: place, TimeIn: in, TimeOut: out}
		tp.Annotations = core.AnnotationSetOf(d.annotations())
		if d.U8() == 1 {
			tp.Episode = d.episode()
		}
		tuples = append(tuples, tp)
	}
	return tuples
}

// Span is what a segment's run directory records of a tuple run beside its
// count: how many of its tuples are stops, their least TimeIn and their
// greatest TimeOut. A zero TimeIn is a time like any other, the least, as
// in a segment's summary. The zero Span is that of a run of no tuples.
type Span struct {
	Stops    int
	Min, Max time.Time
}

// Add folds the run's i-th tuple into s.
func (s *Span) Add(i int, kind episode.Kind, in, out time.Time) {
	if kind == episode.Stop {
		s.Stops++
	}
	if i == 0 || in.Before(s.Min) {
		s.Min = in
	}
	if i == 0 || out.After(s.Max) {
		s.Max = out
	}
}

// SpanOf returns the span of a run of tuples.
func SpanOf(tuples []*core.EpisodeTuple) Span {
	var s Span
	for i, tp := range tuples {
		s.Add(i, tp.Kind, tp.TimeIn, tp.TimeOut)
	}
	return s
}

// decodeMutation decodes one log frame payload, its strings inline.
// interned, when non-nil, is a string table shared across calls (one per
// replayed log file): ids, interpretation names and annotation keys repeat
// in nearly every frame, and interning them keeps recovery's allocation
// volume proportional to distinct strings, not to frames.
func decodeMutation(payload []byte, interned map[string]string) (store.Mutation, error) {
	d := Decoder{b: payload, interned: interned}
	return d.mutation()
}

// DecodeRun decodes one segment data frame payload (as returned by
// ParseFrame), whose strings are indexes into the segment's dictionary
// dict, and reports the span of every tuple the run holds, refused ones
// included. Of a tuple run it builds only the tuples keep and want select,
// the others nil at their positions: a keyed read wants the positions it
// resolves, a scan keeps what its filter admits (see Decoder.tuples). The
// decoder never panics on arbitrary input: an index past dict's end is
// corrupt.
func DecodeRun(payload []byte, dict []string, keep store.TupleFilter, want []bool) (store.Mutation, Span, error) {
	if dict == nil {
		dict = []string{} // a dictionary of no strings, not inline ones
	}
	d := Decoder{b: payload, dict: dict, keep: keep, want: want}
	m, err := d.mutation()
	return m, d.span, err
}

// mutation decodes one frame payload. Any structural problem — truncated
// field, impossible count, unknown op, out-of-range dictionary index,
// trailing bytes — returns errCorrupt; it never panics on arbitrary input.
// A tuple run builds the tuples d's filters select (see tuples), and the
// result is otherwise the full decode's.
func (d *Decoder) mutation() (store.Mutation, error) {
	m := store.Mutation{
		Op:             store.MutationOp(d.U8()),
		ObjectID:       d.strShared(),
		TrajectoryID:   d.strShared(),
		Interpretation: d.strShared(),
	}
	m.Start = d.position()
	switch m.Op {
	case store.MutPutRecords:
		m.Records = d.records(m.ObjectID)
	case store.MutPutTrajectory:
		m.Count = d.position()
	case store.MutPutEpisodes, store.MutAppendEpisodes:
		m.Episodes = d.episodes()
	case store.MutPutStructured, store.MutAppendTuples:
		m.Tuples = d.tuples()
	case store.MutMergeTuple:
		m.Place = d.place()
		m.Annotations = d.annotations()
	default:
		d.fail()
	}
	if err := d.Err(); err != nil {
		return store.Mutation{}, err
	}
	return m, nil
}
