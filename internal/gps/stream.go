package gps

import (
	"fmt"
	"sort"
	"time"

	"semitri/internal/obs"
)

// This file implements the streaming counterparts of the batch preprocessing
// chain: StreamCleaner mirrors Clean (outlier removal + smoothing) and
// StreamSegmenter mirrors IdentifyTrajectories / SplitDaily, one record at a
// time. Both are designed for exact parity with the batch functions: feeding
// the records of a sorted stream through StreamCleaner followed by
// StreamSegmenter (and flushing at the end) yields the same cleaned records
// and the same raw trajectories — same ids, same record contents — as the
// batch chain.

// StreamCleaner incrementally cleans a raw GPS stream: a causal per-object
// speed gate drops outliers (as RemoveOutliers does) and a centred moving
// average of half-width w smooths positions (as Smooth does). Because the
// smoothing window is centred, a record's cleaned form is only final once w
// further records of the same object have been accepted; Add therefore
// returns records with a lag of w, and Flush drains the tail.
//
// The steady state allocates nothing: each object's window is a fixed
// buffer of 2w+1 records that shifts in place, and Add and Flush return the
// object's own output buffer, which stays valid only until the next call on
// the cleaner. Callers that keep the records must copy them (appending them
// to a slice of their own is enough).
//
// A StreamCleaner is not safe for concurrent use; wrap it in the caller's
// lock (the semitri.StreamProcessor does).
type StreamCleaner struct {
	cfg     CleaningConfig
	objects map[string]*cleanerState
}

type cleanerState struct {
	last    Record // last accepted record (outlier gate)
	hasLast bool
	// pending holds accepted records whose smoothed position is not yet
	// final. Raw (unsmoothed) positions are kept; a record is emitted once
	// cfg.SmoothingWindow records follow it in the window. Its capacity,
	// 2w+1, is never exceeded.
	pending []Record
	emitted int      // records of this object already emitted
	out     []Record // the last Add's or Flush's result, reused
}

// NewStreamCleaner returns a cleaner with the given configuration.
func NewStreamCleaner(cfg CleaningConfig) *StreamCleaner {
	return &StreamCleaner{cfg: cfg, objects: map[string]*cleanerState{}}
}

// Add offers one raw record to the cleaner and returns the records (zero or
// one, in the common case) whose cleaned form became final, in a slice valid
// until the next call on the cleaner. Records of one object must arrive in
// non-decreasing time order; a record older than the last accepted one of
// its object is dropped, as the batch chain sorts them away before
// cleaning, and counted in semitri_ingest_late_dropped_total.
func (c *StreamCleaner) Add(r Record) []Record {
	st, ok := c.objects[r.ObjectID]
	if !ok {
		st = &cleanerState{pending: make([]Record, 0, 2*max(c.cfg.SmoothingWindow, 0)+1)}
		c.objects[r.ObjectID] = st
	}
	if st.hasLast {
		dt := r.Time.Sub(st.last.Time).Seconds()
		if dt < 0 {
			obs.IngestLateDropped.Inc()
			return nil // late record: batch sorting would have moved it earlier
		}
		if c.cfg.MaxSpeed > 0 {
			if dt == 0 {
				return nil // duplicate timestamp, dropped like RemoveOutliers
			}
			if r.Position.DistanceTo(st.last.Position)/dt > c.cfg.MaxSpeed {
				return nil // implausible jump: outlier
			}
		}
	}
	st.last = r
	st.hasLast = true
	st.pending = append(st.pending, r)
	return c.drain(st, false)
}

// drain emits, into st.out, every pending record whose smoothing window is
// complete (or every pending record when final is true).
func (c *StreamCleaner) drain(st *cleanerState, final bool) []Record {
	w := c.cfg.SmoothingWindow
	if w <= 0 {
		st.out = append(st.out[:0], st.pending...)
		st.emitted += len(st.pending)
		st.pending = st.pending[:0]
		return st.out
	}
	st.out = st.out[:0]
	for {
		// The first min(emitted, w) pending entries are history kept for the
		// left half of the window; the head record follows them and is final
		// once w records follow it in turn.
		head := st.emitted
		if head > w {
			head = w
		}
		if head >= len(st.pending) {
			break // nothing unemitted
		}
		if !final && len(st.pending)-head-1 < w {
			break
		}
		st.out = append(st.out, c.smoothHead(st))
	}
	return st.out
}

// smoothHead emits pending[0] with its centred moving average applied. The
// left half of the window may reach into already-emitted records, so up to
// 2w+1 records are retained in pending (w emitted-but-still-needed on the
// left, the head, and up to w on the right).
func (c *StreamCleaner) smoothHead(st *cleanerState) Record {
	w := c.cfg.SmoothingWindow
	// Index of the head within pending: the first min(emitted, w) entries are
	// history kept only for the left half of the window.
	head := st.emitted
	if head > w {
		head = w
	}
	lo := head - w
	if lo < 0 {
		lo = 0
	}
	hi := head + w
	if hi >= len(st.pending) {
		hi = len(st.pending) - 1
	}
	var sx, sy float64
	for j := lo; j <= hi; j++ {
		sx += st.pending[j].Position.X
		sy += st.pending[j].Position.Y
	}
	n := float64(hi - lo + 1)
	out := st.pending[head]
	out.Position.X = sx / n
	out.Position.Y = sy / n
	st.emitted++
	// Drop history that the next head's window can no longer reach, shifting
	// the window in place so its buffer is never reallocated.
	if head == w {
		st.pending = st.pending[:copy(st.pending, st.pending[1:])]
	}
	return out
}

// Flush finalises the pending records of one object and returns them
// cleaned. The object's smoothing history is reset: parity with one batch
// Clean call holds only when Flush is called once, after the object's stream
// ended. The object's buffers are released; the returned slice is no longer
// the cleaner's.
func (c *StreamCleaner) Flush(objectID string) []Record {
	st, ok := c.objects[objectID]
	if !ok {
		return nil
	}
	out := c.drain(st, true)
	delete(c.objects, objectID)
	return out
}

// FlushAll finalises every object's pending records, in sorted object order.
func (c *StreamCleaner) FlushAll() []Record {
	ids := make([]string, 0, len(c.objects))
	for id := range c.objects {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []Record
	for _, id := range ids {
		out = append(out, c.Flush(id)...)
	}
	return out
}

// SegmentEvent describes what happened inside the StreamSegmenter when a
// cleaned record was added.
type SegmentEvent struct {
	// Closed is the previous open segment of the record's object when the
	// record (or a day boundary / time gap / distance gap) closed it and the
	// segment had enough records to be kept. Nil otherwise.
	Closed *RawTrajectory
	// ClosedDropped reports that the previous segment closed but was dropped
	// for having fewer than MinRecords records.
	ClosedDropped bool
	// Opened reports that the record started a new open segment.
	Opened bool
	// Committed reports that the open segment just reached MinRecords and
	// was assigned its final trajectory id: from now on the segment is
	// guaranteed to be kept, and SegmentID names it.
	Committed bool
	// SegmentID is the id of the open segment once committed ("" before).
	SegmentID string
}

// StreamSegmenter incrementally splits a cleaned record stream into raw
// trajectories, reproducing IdentifyTrajectories (daily == false) or
// SplitDaily (daily == true) exactly: same split points, same ids, same
// dropped segments. Records of one object must arrive in time order; objects
// may interleave freely.
//
// Segment buffers: the Records of a closed trajectory (SegmentEvent.Closed,
// Flush) belong to the caller, and the segmenter never writes to them again
// unless the caller hands them back through Recycle, after which the
// segmenter may reuse them for a later segment of the same object. A
// dropped segment's buffer never leaves the segmenter and is reused the same
// way. An owner that recycles every closed trajectory therefore reuses
// about two buffers per object: the one being closed and the one being
// filled.
type StreamSegmenter struct {
	cfg   SegmentationConfig
	daily bool
	open  map[string]*openSegment
	kept  map[string]int // id-numbering key -> kept trajectory count
	// spare holds, per object, one emptied buffer for its next segment: the
	// larger of those handed back, so capacity is never traded down.
	spare map[string][]Record
}

type openSegment struct {
	records []Record
	dayKey  int    // UTC civil day of the records as y*10000+m*100+d, when daily splitting
	day     string // the same day formatted "2006-01-02", for ids
	id      string // assigned once the segment reaches MinRecords
}

// civilDay returns t's UTC calendar day as y*10000+m*100+d: equal exactly
// when the "2006-01-02" formats are, without formatting per record.
func civilDay(t time.Time) int {
	y, m, d := t.UTC().Date()
	return y*10000 + int(m)*100 + d
}

// NewStreamSegmenter returns a segmenter. With daily true the stream is
// additionally split at UTC day boundaries and ids follow SplitDaily's
// "object-day-NN" scheme; otherwise ids follow IdentifyTrajectories'
// "object-TNNNN" scheme.
func NewStreamSegmenter(cfg SegmentationConfig, daily bool) *StreamSegmenter {
	return &StreamSegmenter{
		cfg:   cfg,
		daily: daily,
		open:  map[string]*openSegment{},
		kept:  map[string]int{},
		spare: map[string][]Record{},
	}
}

func (s *StreamSegmenter) idKey(objectID, day string) string {
	if s.daily {
		return objectID + "-" + day
	}
	return objectID
}

func (s *StreamSegmenter) newID(objectID, day string) string {
	key := s.idKey(objectID, day)
	n := s.kept[key]
	if s.daily {
		return fmt.Sprintf("%s-%s-%02d", objectID, day, n)
	}
	return fmt.Sprintf("%s-T%04d", objectID, n)
}

// Add routes one cleaned record. It may first close the object's previous
// segment (time gap, distance gap or day change) and then opens or extends
// the current one; the returned event describes both effects.
func (s *StreamSegmenter) Add(r Record) SegmentEvent {
	var ev SegmentEvent
	dayKey := 0
	if s.daily {
		dayKey = civilDay(r.Time)
	}
	seg, ok := s.open[r.ObjectID]
	if ok {
		prev := seg.records[len(seg.records)-1]
		timeGap := s.cfg.MaxTimeGap > 0 && r.Time.Sub(prev.Time) > s.cfg.MaxTimeGap
		distGap := s.cfg.MaxDistanceGap > 0 && r.Position.DistanceTo(prev.Position) > s.cfg.MaxDistanceGap
		dayGap := s.daily && dayKey != seg.dayKey
		if timeGap || distGap || dayGap {
			ev.Closed, ev.ClosedDropped = s.close(r.ObjectID)
			seg = nil
			ok = false
		}
	}
	if !ok {
		seg = &openSegment{records: s.spare[r.ObjectID], dayKey: dayKey}
		delete(s.spare, r.ObjectID)
		if s.daily {
			seg.day = r.Time.UTC().Format("2006-01-02")
		}
		s.open[r.ObjectID] = seg
		ev.Opened = true
	}
	seg.records = append(seg.records, r)
	if seg.id == "" && len(seg.records) >= s.cfg.MinRecords {
		seg.id = s.newID(r.ObjectID, seg.day)
		s.kept[s.idKey(r.ObjectID, seg.day)]++
		ev.Committed = true
	}
	ev.SegmentID = seg.id
	return ev
}

// close finishes the open segment of an object. It returns the kept
// trajectory, or (nil, true) when the segment was dropped for being too
// short, or (nil, false) when no segment was open.
func (s *StreamSegmenter) close(objectID string) (*RawTrajectory, bool) {
	seg, ok := s.open[objectID]
	if !ok {
		return nil, false
	}
	delete(s.open, objectID)
	if seg.id == "" {
		s.keepSpare(objectID, seg.records)
		return nil, len(seg.records) > 0
	}
	return &RawTrajectory{ID: seg.id, ObjectID: objectID, Records: seg.records}, false
}

// OpenRecords returns the records of the object's open segment (the live
// slice: callers must not retain it across Add calls) and the segment id
// ("" while uncommitted). ok is false when no segment is open.
func (s *StreamSegmenter) OpenRecords(objectID string) (records []Record, id string, ok bool) {
	seg, found := s.open[objectID]
	if !found {
		return nil, "", false
	}
	return seg.records, seg.id, true
}

// Recycle hands a closed trajectory's record buffer back to the segmenter,
// which may reuse it for the object's next segment: the caller must not read
// t.Records afterwards.
func (s *StreamSegmenter) Recycle(t *RawTrajectory) {
	s.keepSpare(t.ObjectID, t.Records)
	t.Records = nil
}

// keepSpare makes buf the object's spare buffer unless the spare it has is
// larger.
func (s *StreamSegmenter) keepSpare(objectID string, buf []Record) {
	if cap(buf) > cap(s.spare[objectID]) {
		s.spare[objectID] = buf[:0]
	}
}

// Flush closes the object's open segment, returning the kept trajectory (or
// nil when nothing was open or the segment was dropped).
func (s *StreamSegmenter) Flush(objectID string) *RawTrajectory {
	t, _ := s.close(objectID)
	return t
}

// FlushAll closes every open segment in sorted object order and returns the
// kept trajectories.
func (s *StreamSegmenter) FlushAll() []*RawTrajectory {
	ids := make([]string, 0, len(s.open))
	for id := range s.open {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []*RawTrajectory
	for _, id := range ids {
		if t := s.Flush(id); t != nil {
			out = append(out, t)
		}
	}
	return out
}
