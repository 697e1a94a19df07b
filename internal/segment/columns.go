package segment

import (
	"slices"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/store"
	"semitri/internal/wal"
)

// A column frame is a tuple run's small summary beside its data frame: what
// a grouped scan reads of each tuple, and nothing else, so a projected read
// (store.TupleRead.Project) answers from it without decoding the run. Its
// payload is the run's tuple count, then per tuple, column by column:
//
//	kind                    u8
//	TimeIn, TimeOut         the codec's times
//	place id                u8 presence, then a dictionary index
//	annotations             count, then per annotation its key and value
//	                        as dictionary indexes
//
// Episodes, confidences, sources, and place names, categories and extents
// stay in the data frame. The frame is framed like a data frame and
// checked like one at Open, which also decodes it and checks it against
// its directory entry's count, stop count and span.

// colTupleMin is the least a tuple takes of a column frame: a kind, two
// zero times, no place and no annotations.
const colTupleMin = 5

// appendColumns appends the column frame of a run of tuples to buf, its
// strings indexes into dict.
func appendColumns(buf []byte, e *wal.Encoder, tuples []*core.EpisodeTuple, dict *wal.Dict) []byte {
	e.Reset()
	e.Uv(uint64(len(tuples)))
	for _, tp := range tuples {
		e.U8(byte(tp.Kind))
		e.Time(tp.TimeIn)
		e.Time(tp.TimeOut)
		if tp.Place == nil {
			e.U8(0)
		} else {
			e.U8(1)
			e.Uv(dict.Index(tp.Place.ID))
		}
		anns := tp.Annotations.All()
		e.Uv(uint64(len(anns)))
		for _, a := range anns {
			e.Uv(dict.Index(a.Key))
			e.Uv(dict.Index(a.Value))
		}
	}
	return wal.AppendFrame(buf, e.Bytes())
}

// columns is the memory a column frame decodes into, reused from run to
// run: the tuples a decode returns, with the places and annotations they
// reach, are valid until the next decode into the same columns.
type columns struct {
	dec    wal.Decoder
	ptrs   []*core.EpisodeTuple
	tuples []core.EpisodeTuple
	places []core.Place
	anns   []core.Annotation
}

// decode decodes a column frame payload, whose strings are indexes into
// dict. Of each tuple keep admits (every one when keep is nil) it builds
// the kind, the times and the fields proj asks for; the entry of any other
// tuple is nil, and proj nil builds no tuple at all. Unless span is nil it
// folds every tuple into span: Open checks a frame's span against its
// directory entry, and a scan, whose frame's checksum shows it is the one
// Open checked, does not. Every byte is checked whatever is built: a
// truncated frame, an impossible count, an unknown kind, an index past
// dict's end or trailing bytes are an error. It never panics on arbitrary
// input.
func (c *columns) decode(payload []byte, dict []string, keep store.TupleFilter, proj *store.Projection, span *wal.Span) ([]*core.EpisodeTuple, error) {
	d := &c.dec
	d.Reset(payload)
	n := d.Count(colTupleMin)
	if cap(c.ptrs) < n {
		c.ptrs = make([]*core.EpisodeTuple, 0, n)
	}
	if proj != nil && len(c.tuples) < n {
		c.tuples = make([]core.EpisodeTuple, n)
		c.places = make([]core.Place, 0, n)
	}
	// The tuple and place arrays never grow during the run, so the
	// pointers into them stay put; an annotation array that grows leaves
	// the sets already taken on the old one, which is never written again.
	c.ptrs, c.places, c.anns = c.ptrs[:0], c.places[:0], c.anns[:0]
	for i := 0; i < n && !d.Failed(); i++ {
		kind := episode.Kind(d.U8())
		in, out := d.Time(), d.Time()
		if kind != episode.Stop && kind != episode.Move {
			d.Fail()
			break
		}
		if span != nil {
			span.Add(i, kind, in, out)
		}
		var tp *core.EpisodeTuple
		if proj != nil && (keep == nil || keep(kind, in, out)) {
			tp = &c.tuples[i]
			*tp = core.EpisodeTuple{Kind: kind, TimeIn: in, TimeOut: out}
		}
		switch d.U8() {
		case 0:
		case 1:
			id := d.Uv()
			if id >= uint64(len(dict)) {
				d.Fail()
			} else if tp != nil && proj.Place {
				c.places = append(c.places, core.Place{ID: dict[id]})
				tp.Place = &c.places[len(c.places)-1]
			}
		default:
			d.Fail()
		}
		lo := len(c.anns)
		// Each annotation takes two bytes at least, so the loop stops at
		// the payload's end, where the decoder fails, whatever na says.
		for na := d.Uv(); na > 0 && !d.Failed(); na-- {
			key, value := d.Uv(), d.Uv()
			if key >= uint64(len(dict)) || value >= uint64(len(dict)) {
				d.Fail()
			} else if tp != nil && slices.Contains(proj.AnnKeys, dict[key]) {
				c.anns = append(c.anns, core.Annotation{Key: dict[key], Value: dict[value]})
			}
		}
		if tp != nil {
			hi := len(c.anns)
			tp.Annotations = core.AnnotationSetOf(c.anns[lo:hi:hi])
		}
		c.ptrs = append(c.ptrs, tp)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return c.ptrs, nil
}
