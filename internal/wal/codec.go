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

// The mutation codec: a compact little-endian binary encoding of
// store.Mutation, hand-rolled so the streaming hot path pays a handful of
// byte appends per record instead of a reflective marshal. Strings are
// varint-length-prefixed, counts and non-negative integers are unsigned
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

type encoder struct{ b []byte }

func (e *encoder) u8(v byte)     { e.b = append(e.b, v) }
func (e *encoder) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

// uv appends an unsigned LEB128 varint.
func (e *encoder) uv(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// iv appends a zigzag-encoded signed varint.
func (e *encoder) iv(v int64) { e.b = binary.AppendVarint(e.b, v) }

func (e *encoder) str(s string) {
	e.uv(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) time(t time.Time) {
	if t.IsZero() {
		e.u8(0)
		return
	}
	e.u8(1)
	e.iv(t.Unix())
	e.uv(uint64(t.Nanosecond()))
}

func (e *encoder) point(p geo.Point) { e.f64(p.X); e.f64(p.Y) }
func (e *encoder) rect(r geo.Rect)   { e.point(r.Min); e.point(r.Max) }

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
func (e *encoder) records(owner string, recs []gps.Record) {
	e.uv(uint64(len(recs)))
	var prevSec int64
	havePrev := false
	for _, r := range recs {
		if r.ObjectID == owner {
			e.u8(0)
		} else {
			e.u8(1)
			e.str(r.ObjectID)
		}
		e.point(r.Position)
		switch {
		case r.Time.IsZero():
			e.u8(recTimeZero)
		case havePrev:
			sec := r.Time.Unix()
			e.u8(recTimeDelta)
			e.iv(sec - prevSec)
			e.uv(uint64(r.Time.Nanosecond()))
			prevSec = sec
		default:
			e.u8(recTimeAbs)
			e.iv(r.Time.Unix())
			e.uv(uint64(r.Time.Nanosecond()))
			prevSec, havePrev = r.Time.Unix(), true
		}
	}
}

func (e *encoder) episode(ep *episode.Episode) {
	e.str(ep.TrajectoryID)
	e.str(ep.ObjectID)
	e.u8(byte(ep.Kind))
	e.uv(uint64(ep.StartIdx))
	e.uv(uint64(ep.EndIdx))
	e.time(ep.Start)
	e.time(ep.End)
	e.point(ep.Center)
	e.rect(ep.Bounds)
	e.f64(ep.AvgSpeed)
	e.f64(ep.MaxSpeed)
	e.f64(ep.Distance)
	e.uv(uint64(ep.RecordCount))
}

func (e *encoder) episodes(eps []*episode.Episode) {
	e.uv(uint64(len(eps)))
	for _, ep := range eps {
		e.episode(ep)
	}
}

func (e *encoder) place(p *core.Place) {
	if p == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.str(p.ID)
	e.u8(byte(p.Kind))
	e.str(p.Name)
	e.str(p.Category)
	e.rect(p.Extent)
}

func (e *encoder) annotations(anns []core.Annotation) {
	e.uv(uint64(len(anns)))
	for _, a := range anns {
		e.str(a.Key)
		e.str(a.Value)
		e.f64(a.Confidence)
		e.str(a.Source)
	}
}

func (e *encoder) tuples(tuples []*core.EpisodeTuple) {
	e.uv(uint64(len(tuples)))
	for _, tp := range tuples {
		e.u8(byte(tp.Kind))
		e.place(tp.Place)
		e.time(tp.TimeIn)
		e.time(tp.TimeOut)
		e.annotations(tp.Annotations.All())
		if tp.Episode == nil {
			e.u8(0)
		} else {
			e.u8(1)
			e.episode(tp.Episode)
		}
	}
}

// encodeMutation appends the payload encoding of m to e.
func encodeMutation(e *encoder, m store.Mutation) {
	e.u8(byte(m.Op))
	e.str(m.ObjectID)
	e.str(m.TrajectoryID)
	e.str(m.Interpretation)
	e.uv(uint64(m.Start))
	switch m.Op {
	case store.MutPutRecords:
		e.records(m.ObjectID, m.Records)
	case store.MutPutTrajectory:
		e.uv(uint64(m.Count)) // with Start, the range of the object's records
	case store.MutPutEpisodes, store.MutAppendEpisodes:
		e.episodes(m.Episodes)
	case store.MutPutStructured, store.MutAppendTuples:
		e.tuples(m.Tuples)
	case store.MutMergeTuple:
		e.place(m.Place)
		e.annotations(m.Annotations)
	}
}

type decoder struct {
	b   []byte
	off int
	err error
	// interned deduplicates decoded strings across frames (see strShared).
	// Nil disables interning.
	interned map[string]string
}

// maxInterned bounds the intern table so a log full of unique strings (or a
// crafted one) cannot grow it without limit; once full, later misses simply
// allocate as before.
const maxInterned = 1 << 16

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errCorrupt
	}
}

func (d *decoder) remaining() int { return len(d.b) - d.off }

func (d *decoder) u8() byte {
	if d.err != nil || d.remaining() < 1 {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.remaining() < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// uv reads an unsigned LEB128 varint.
func (d *decoder) uv() uint64 {
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

// iv reads a zigzag-encoded signed varint.
func (d *decoder) iv() int64 {
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

func (d *decoder) str() string {
	n := int(d.uv())
	if d.err != nil || n < 0 || n > d.remaining() {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// strShared decodes a string through the intern table: the many repeats of
// low-cardinality strings in a log — object and trajectory ids,
// interpretation names, annotation keys and sources, place metadata — decode
// to one shared backing string instead of one heap copy per frame. The
// map[string(bytes)] probe compiles to a no-allocation lookup; only a miss
// pays for the copy.
func (d *decoder) strShared() string {
	n := int(d.uv())
	if d.err != nil || n < 0 || n > d.remaining() {
		d.fail()
		return ""
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	if s, ok := d.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.interned != nil && len(d.interned) < maxInterned {
		d.interned[s] = s
	}
	return s
}

// count reads an element count and rejects values that could not possibly
// fit in the remaining bytes (elemMin is a conservative lower bound on one
// element's encoding), bounding allocations on corrupt input. The division
// form avoids the n*elemMin overflow a crafted huge count would exploit.
func (d *decoder) count(elemMin int) int {
	n := int(d.uv())
	if d.err != nil || n < 0 || n > d.remaining()/elemMin {
		d.fail()
		return 0
	}
	return n
}

// position reads a record, episode or tuple position (or count), bounded so
// that position arithmetic cannot overflow.
func (d *decoder) position() int {
	v := d.uv()
	if v > uint64(math.MaxInt32)<<16 {
		d.fail()
	}
	return int(v)
}

func (d *decoder) time() time.Time {
	if d.u8() == 0 {
		return time.Time{}
	}
	sec := d.iv()
	nsec := d.uv()
	if d.err != nil || nsec >= 1e9 {
		d.fail()
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

func (d *decoder) point() geo.Point { return geo.Point{X: d.f64(), Y: d.f64()} }
func (d *decoder) rect() geo.Rect   { return geo.Rect{Min: d.point(), Max: d.point()} }

func (d *decoder) records(owner string) []gps.Record {
	n := d.count(1 + 16 + 1)
	if d.err != nil || n == 0 {
		return nil
	}
	recs := make([]gps.Record, 0, n)
	var prevSec int64
	havePrev := false
	for i := 0; i < n && d.err == nil; i++ {
		obj := owner
		if d.u8() == 1 {
			obj = d.str()
		}
		pos := d.point()
		var t time.Time
		switch d.u8() {
		case recTimeZero:
		case recTimeAbs:
			sec := d.iv()
			nsec := d.uv()
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
			sec := prevSec + d.iv()
			nsec := d.uv()
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

func (d *decoder) episode() *episode.Episode {
	ep := &episode.Episode{
		TrajectoryID: d.str(),
		ObjectID:     d.str(),
		Kind:         episode.Kind(d.u8()),
		StartIdx:     int(d.uv()),
		EndIdx:       int(d.uv()),
		Start:        d.time(),
		End:          d.time(),
		Center:       d.point(),
		Bounds:       d.rect(),
		AvgSpeed:     d.f64(),
		MaxSpeed:     d.f64(),
		Distance:     d.f64(),
		RecordCount:  int(d.uv()),
	}
	if ep.Kind != episode.Stop && ep.Kind != episode.Move {
		d.fail()
	}
	return ep
}

func (d *decoder) episodes() []*episode.Episode {
	n := d.count(8 + 8 + 1 + 16 + 2)
	if d.err != nil || n == 0 {
		return nil
	}
	eps := make([]*episode.Episode, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		eps = append(eps, d.episode())
	}
	return eps
}

func (d *decoder) place() *core.Place {
	if d.u8() == 0 {
		return nil
	}
	p := &core.Place{
		ID:       d.strShared(),
		Kind:     core.PlaceKind(d.u8()),
		Name:     d.strShared(),
		Category: d.strShared(),
		Extent:   d.rect(),
	}
	if p.Kind != core.RegionPlace && p.Kind != core.LinePlace && p.Kind != core.PointPlace {
		d.fail()
	}
	return p
}

func (d *decoder) annotations() []core.Annotation {
	n := d.count(4 + 4 + 8 + 4)
	if d.err != nil || n == 0 {
		return nil
	}
	anns := make([]core.Annotation, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		anns = append(anns, core.Annotation{Key: d.strShared(), Value: d.strShared(), Confidence: d.f64(), Source: d.strShared()})
	}
	return anns
}

func (d *decoder) tuples() []*core.EpisodeTuple {
	n := d.count(1 + 1 + 2 + 4 + 1)
	if d.err != nil || n == 0 {
		return nil
	}
	tuples := make([]*core.EpisodeTuple, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		tp := &core.EpisodeTuple{
			Kind:    episode.Kind(d.u8()),
			Place:   d.place(),
			TimeIn:  d.time(),
			TimeOut: d.time(),
		}
		if tp.Kind != episode.Stop && tp.Kind != episode.Move {
			d.fail()
			break
		}
		for _, a := range d.annotations() {
			tp.Annotations.Add(a)
		}
		if d.u8() == 1 {
			tp.Episode = d.episode()
		}
		tuples = append(tuples, tp)
	}
	return tuples
}

// decodeMutation decodes one frame payload. Any structural problem —
// truncated field, impossible count, unknown op, trailing bytes — returns
// errCorrupt; the function never panics on arbitrary input. interned, when
// non-nil, is a string table shared across calls (one per replayed segment):
// ids, interpretation names and annotation keys repeat in nearly every
// frame, and interning them keeps recovery's allocation volume proportional
// to distinct strings, not to frames.
func decodeMutation(payload []byte, interned map[string]string) (store.Mutation, error) {
	d := &decoder{b: payload, interned: interned}
	m := store.Mutation{
		Op:             store.MutationOp(d.u8()),
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
	if d.err == nil && d.off != len(d.b) {
		d.fail()
	}
	if d.err != nil {
		return store.Mutation{}, d.err
	}
	return m, nil
}
