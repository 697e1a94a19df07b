package store

import (
	"slices"
	"time"

	"semitri/internal/geo"
	"semitri/internal/gps"
)

// fix is one GPS record as the heap tables hold it: the position and the
// UTC time as seconds plus nanoseconds (the form the WAL and the segments
// encode), with the object id kept once in the run's key. It holds no
// pointers, so a run of fixes is one allocation the garbage collector never
// scans. gps.Record values are built only where the store hands data out.
//
// A run's first n fixes never change once written: writers only append to a
// record run or replace a run wholesale, so a reader may snapshot the slice
// header under the stripe lock and unpack it after releasing the lock.
type fix struct {
	x, y float64
	sec  int64
	nsec int32
}

// trajRange is a stored raw trajectory: count consecutive positions of its
// object's record run, starting at start. It holds no records of its own —
// every fix is stored once, in the record run. frozen reports that a segment
// already persists the range, so a freeze need not emit it again.
type trajRange struct {
	objectID     string
	start, count int
	frozen       bool
}

func packFix(r gps.Record) fix {
	return fix{x: r.Position.X, y: r.Position.Y, sec: r.Time.Unix(), nsec: int32(r.Time.Nanosecond())}
}

// time returns the fix's time in UTC; a packed zero time comes back as the
// zero time.
func (f fix) time() time.Time { return time.Unix(f.sec, int64(f.nsec)).UTC() }

// appendRecords appends the run's fixes, owned by obj, to buf as records,
// growing buf once. An empty run leaves a nil buf nil, as a decoded frame
// has it.
func appendRecords(buf []gps.Record, obj string, run []fix) []gps.Record {
	buf = slices.Grow(buf, len(run))
	for _, f := range run {
		buf = append(buf, gps.Record{ObjectID: obj, Position: geo.Point{X: f.x, Y: f.y}, Time: f.time()})
	}
	return buf
}
