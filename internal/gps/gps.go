// Package gps models raw GPS streams and implements the preprocessing part
// of SeMiTri's Trajectory Computation Layer: outlier removal, smoothing of
// random errors and identification of raw trajectories (finite, meaningful
// subsequences of the stream), as described in §3.3 of the paper and in the
// companion work [30].
//
// Ingestion runs the streaming StreamCleaner and StreamSegmenter. The batch
// kernels Clean, RemoveOutliers, Smooth, IdentifyTrajectories and SplitDaily
// are the reference implementation the parity tests compare the streaming
// path against; they have no production caller on purpose.
package gps

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"semitri/internal/geo"
)

// Record is one spatio-temporal point (x, y, t) of a moving object's stream
// (Definition 1 in the paper uses (longitude, latitude, t); every workload
// here uses a planar metric frame instead).
type Record struct {
	ObjectID string    // identifier of the moving object (taxi id, user id ...)
	Position geo.Point // location in the working frame (metres)
	Time     time.Time // timestamp of the fix
}

// RawTrajectory is a finite sequence of records of a single moving object,
// the unit on which the annotation layers operate (Definition 1).
type RawTrajectory struct {
	ID       string
	ObjectID string
	Records  []Record
}

// Duration returns the time spanned by the trajectory.
func (t *RawTrajectory) Duration() time.Duration {
	if len(t.Records) < 2 {
		return 0
	}
	return t.Records[len(t.Records)-1].Time.Sub(t.Records[0].Time)
}

// Bounds returns the spatial bounding rectangle of the trajectory.
func (t *RawTrajectory) Bounds() geo.Rect {
	r := geo.EmptyRect()
	for _, rec := range t.Records {
		r = r.Union(geo.Rect{Min: rec.Position, Max: rec.Position})
	}
	return r
}

// Speeds returns the instantaneous speed (m/s) between consecutive records;
// the result has len(Records)-1 elements (empty for fewer than two records).
func (t *RawTrajectory) Speeds() []float64 {
	if len(t.Records) < 2 {
		return nil
	}
	out := make([]float64, len(t.Records)-1)
	for i := 1; i < len(t.Records); i++ {
		dt := t.Records[i].Time.Sub(t.Records[i-1].Time).Seconds()
		if dt <= 0 {
			out[i-1] = 0
			continue
		}
		out[i-1] = t.Records[i].Position.DistanceTo(t.Records[i-1].Position) / dt
	}
	return out
}

// Validate checks the structural invariants of a raw trajectory: at least
// one record, a single object id and non-decreasing timestamps.
func (t *RawTrajectory) Validate() error {
	if len(t.Records) == 0 {
		return errors.New("gps: trajectory has no records")
	}
	for i, rec := range t.Records {
		if rec.ObjectID != t.ObjectID {
			return fmt.Errorf("gps: record %d belongs to object %q, trajectory to %q", i, rec.ObjectID, t.ObjectID)
		}
		if i > 0 && rec.Time.Before(t.Records[i-1].Time) {
			return fmt.Errorf("gps: record %d timestamp goes backwards", i)
		}
	}
	return nil
}

// SortRecords orders records by object id and then by time; preprocessing
// assumes this ordering.
func SortRecords(records []Record) {
	sort.SliceStable(records, func(i, j int) bool {
		if records[i].ObjectID != records[j].ObjectID {
			return records[i].ObjectID < records[j].ObjectID
		}
		return records[i].Time.Before(records[j].Time)
	})
}

// CleaningConfig controls outlier removal and smoothing.
type CleaningConfig struct {
	// MaxSpeed is the physically plausible maximum speed in m/s. A record
	// requiring a faster jump from its predecessor is dropped as an outlier.
	MaxSpeed float64
	// SmoothingWindow is the half-width of the moving-average window applied
	// to positions (0 disables smoothing). The window is in number of records.
	SmoothingWindow int
}

// DefaultCleaningConfig returns the configuration used by the experiments:
// 70 m/s (252 km/h) speed gate and a +-2 record moving average.
func DefaultCleaningConfig() CleaningConfig {
	return CleaningConfig{MaxSpeed: 70, SmoothingWindow: 2}
}

// RemoveOutliers drops records that imply an implausible speed relative to
// the last accepted record of the same object. Records must be sorted.
func RemoveOutliers(records []Record, maxSpeed float64) []Record {
	if maxSpeed <= 0 || len(records) == 0 {
		return records
	}
	out := make([]Record, 0, len(records))
	var lastByObject = map[string]Record{}
	for _, r := range records {
		last, seen := lastByObject[r.ObjectID]
		if !seen {
			out = append(out, r)
			lastByObject[r.ObjectID] = r
			continue
		}
		dt := r.Time.Sub(last.Time).Seconds()
		if dt <= 0 {
			// Duplicate or out-of-order timestamp: keep only if co-located.
			if r.Position.DistanceTo(last.Position) < 1 {
				continue
			}
			continue
		}
		speed := r.Position.DistanceTo(last.Position) / dt
		if speed > maxSpeed {
			continue
		}
		out = append(out, r)
		lastByObject[r.ObjectID] = r
	}
	return out
}

// Smooth applies a centred moving average of half-width w to the positions
// of each object's records (timestamps are untouched). Records must be
// sorted by object and time.
func Smooth(records []Record, w int) []Record {
	if w <= 0 || len(records) == 0 {
		return records
	}
	out := make([]Record, len(records))
	copy(out, records)
	// Process runs of the same object.
	start := 0
	for start < len(records) {
		end := start
		for end < len(records) && records[end].ObjectID == records[start].ObjectID {
			end++
		}
		run := records[start:end]
		for i := range run {
			lo := i - w
			if lo < 0 {
				lo = 0
			}
			hi := i + w
			if hi >= len(run) {
				hi = len(run) - 1
			}
			var sx, sy float64
			for j := lo; j <= hi; j++ {
				sx += run[j].Position.X
				sy += run[j].Position.Y
			}
			n := float64(hi - lo + 1)
			out[start+i].Position = geo.Pt(sx/n, sy/n)
		}
		start = end
	}
	return out
}

// Clean runs the full preprocessing chain (outlier removal then smoothing).
func Clean(records []Record, cfg CleaningConfig) []Record {
	cleaned := RemoveOutliers(records, cfg.MaxSpeed)
	return Smooth(cleaned, cfg.SmoothingWindow)
}

// SegmentationConfig controls how the record stream of one object is split
// into raw trajectories (the "trajectory identification step" of §3.1).
type SegmentationConfig struct {
	// MaxTimeGap splits the stream whenever two consecutive records are
	// further apart in time (signal loss, battery outage, device off).
	MaxTimeGap time.Duration
	// MaxDistanceGap splits whenever two consecutive records are further
	// apart in space than this many metres (teleport due to data gaps).
	MaxDistanceGap float64
	// MinRecords drops trajectories with fewer records than this.
	MinRecords int
}

// DefaultSegmentationConfig mirrors the daily-trajectory segmentation used
// in the paper's experiments: split on gaps of more than 30 minutes or 5 km,
// keep trajectories with at least 10 records.
func DefaultSegmentationConfig() SegmentationConfig {
	return SegmentationConfig{
		MaxTimeGap:     30 * time.Minute,
		MaxDistanceGap: 5000,
		MinRecords:     10,
	}
}

// IdentifyTrajectories splits a cleaned, sorted record stream into raw
// trajectories per object according to the segmentation configuration.
func IdentifyTrajectories(records []Record, cfg SegmentationConfig) []*RawTrajectory {
	if len(records) == 0 {
		return nil
	}
	var out []*RawTrajectory
	flush := func(objectID string, recs []Record) {
		if len(recs) < cfg.MinRecords || len(recs) == 0 {
			return
		}
		id := fmt.Sprintf("%s-T%04d", objectID, countFor(out, objectID))
		tr := &RawTrajectory{ID: id, ObjectID: objectID, Records: append([]Record(nil), recs...)}
		out = append(out, tr)
	}
	var cur []Record
	for i, r := range records {
		if len(cur) == 0 {
			cur = append(cur, r)
			continue
		}
		prev := cur[len(cur)-1]
		newObject := r.ObjectID != prev.ObjectID
		timeGap := cfg.MaxTimeGap > 0 && r.Time.Sub(prev.Time) > cfg.MaxTimeGap
		distGap := cfg.MaxDistanceGap > 0 && r.Position.DistanceTo(prev.Position) > cfg.MaxDistanceGap
		if newObject || timeGap || distGap {
			flush(prev.ObjectID, cur)
			cur = cur[:0]
		}
		cur = append(cur, r)
		_ = i
	}
	if len(cur) > 0 {
		flush(cur[0].ObjectID, cur)
	}
	return out
}

func countFor(trajectories []*RawTrajectory, objectID string) int {
	n := 0
	for _, t := range trajectories {
		if t.ObjectID == objectID {
			n++
		}
	}
	return n
}

// SplitDaily splits a record stream into per-day trajectories (the "daily
// trajectory" unit used by Table 2 and Figs. 12-14) in the UTC day of the
// record timestamps, after the usual gap-based segmentation.
func SplitDaily(records []Record, cfg SegmentationConfig) []*RawTrajectory {
	if len(records) == 0 {
		return nil
	}
	// Group by (object, day) first, then segment within the group.
	type key struct {
		object string
		day    string
	}
	groups := map[key][]Record{}
	var order []key
	for _, r := range records {
		k := key{r.ObjectID, r.Time.UTC().Format("2006-01-02")}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	var out []*RawTrajectory
	for _, k := range order {
		for _, t := range IdentifyTrajectories(groups[k], cfg) {
			t.ID = fmt.Sprintf("%s-%s-%02d", k.object, k.day, countDayTrajectories(out, k.object, k.day))
			out = append(out, t)
		}
	}
	return out
}

func countDayTrajectories(trajectories []*RawTrajectory, object, day string) int {
	n := 0
	prefix := object + "-" + day
	for _, t := range trajectories {
		if len(t.ID) >= len(prefix) && t.ID[:len(prefix)] == prefix {
			n++
		}
	}
	return n
}

// csvTimeLayout is the timestamp format used by the CSV codec: RFC 3339,
// with the fractional second written only when it is not zero.
const csvTimeLayout = time.RFC3339Nano

// csvHeader is the first row WriteCSV writes and ReadCSV requires.
var csvHeader = []string{"object", "x", "y", "time"}

// WriteCSV writes records as CSV rows "object,x,y,timestamp".
func WriteCSV(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range records {
		row := []string{
			r.ObjectID,
			strconv.FormatFloat(r.Position.X, 'f', -1, 64),
			strconv.FormatFloat(r.Position.Y, 'f', -1, 64),
			r.Time.UTC().Format(csvTimeLayout),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV yields the records of a CSV written by WriteCSV one row at a time,
// so input larger than memory streams through. The first row must be the
// "object,x,y,time" header. The sequence stops after the first error it
// yields; rows are numbered from 1, the header being row 1.
func ReadCSV(r io.Reader) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		// The header fixes the field count every later row must match.
		cr := csv.NewReader(r)
		header, err := cr.Read()
		switch {
		case errors.Is(err, io.EOF):
			err = errors.New("gps: empty csv")
		case err != nil:
			err = fmt.Errorf("gps: row 1: %w", err)
		case !slices.Equal(header, csvHeader):
			err = fmt.Errorf("gps: row 1 is %q, want the header %q", strings.Join(header, ","), strings.Join(csvHeader, ","))
		}
		if err != nil {
			yield(Record{}, err)
			return
		}
		for n := 2; ; n++ {
			row, err := cr.Read()
			if errors.Is(err, io.EOF) {
				return
			}
			var rec Record
			if err == nil {
				rec, err = parseRow(row, n)
			} else {
				err = fmt.Errorf("gps: row %d: %w", n, err)
			}
			if !yield(rec, err) || err != nil {
				return
			}
		}
	}
}

// parseRow decodes the data row n ("object,x,y,time") of a CSV.
func parseRow(row []string, n int) (Record, error) {
	x, err := parseCoord(row[1], n, "x")
	if err != nil {
		return Record{}, err
	}
	y, err := parseCoord(row[2], n, "y")
	if err != nil {
		return Record{}, err
	}
	ts, err := time.Parse(csvTimeLayout, row[3])
	if year := ts.UTC().Year(); err == nil && (year < 0 || year > 9999) {
		// WriteCSV writes UTC, and RFC 3339 has four-digit years only.
		err = fmt.Errorf("%q is outside years 0000-9999 in UTC", row[3])
	}
	if err != nil {
		return Record{}, fmt.Errorf("gps: row %d time: %w", n, err)
	}
	return Record{ObjectID: row[0], Position: geo.Pt(x, y), Time: ts}, nil
}

// parseCoord decodes the coordinate column col of data row n. NaN and the
// infinities are refused: no layer can place them, and the store's JSON
// export cannot encode them.
func parseCoord(field string, n int, col string) (float64, error) {
	v, err := strconv.ParseFloat(field, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("%q is not a finite number", field)
	}
	if err != nil {
		return 0, fmt.Errorf("gps: row %d %s: %w", n, col, err)
	}
	return v, nil
}
