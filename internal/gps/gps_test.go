package gps

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"semitri/internal/geo"
)

var t0 = time.Date(2010, 3, 15, 8, 0, 0, 0, time.UTC)

func rec(obj string, x, y float64, offsetSec int) Record {
	return Record{ObjectID: obj, Position: geo.Pt(x, y), Time: t0.Add(time.Duration(offsetSec) * time.Second)}
}

func TestTrajectoryBasics(t *testing.T) {
	tr := &RawTrajectory{
		ID:       "u1-T0000",
		ObjectID: "u1",
		Records:  []Record{rec("u1", 0, 0, 0), rec("u1", 30, 40, 10), rec("u1", 30, 40, 20)},
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.Duration() != 20*time.Second {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	b := tr.Bounds()
	if b.Min != geo.Pt(0, 0) || b.Max != geo.Pt(30, 40) {
		t.Fatalf("Bounds = %+v", b)
	}
	sp := tr.Speeds()
	if len(sp) != 2 || sp[0] != 5 || sp[1] != 0 {
		t.Fatalf("Speeds = %v", sp)
	}
}

func TestTrajectoryValidateErrors(t *testing.T) {
	empty := &RawTrajectory{ID: "x", ObjectID: "u1"}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty trajectory should fail validation")
	}
	wrongObject := &RawTrajectory{ID: "x", ObjectID: "u1", Records: []Record{rec("u2", 0, 0, 0)}}
	if err := wrongObject.Validate(); err == nil {
		t.Fatal("mismatched object id should fail validation")
	}
	backwards := &RawTrajectory{ID: "x", ObjectID: "u1", Records: []Record{rec("u1", 0, 0, 10), rec("u1", 0, 0, 5)}}
	if err := backwards.Validate(); err == nil {
		t.Fatal("backwards timestamps should fail validation")
	}
}

func TestTrajectoryEdgeCases(t *testing.T) {
	single := &RawTrajectory{ID: "s", ObjectID: "u", Records: []Record{rec("u", 1, 1, 0)}}
	if single.Duration() != 0 || single.Speeds() != nil {
		t.Fatal("single-record trajectory should have zero duration and nil speeds")
	}
	if single.Validate() != nil {
		t.Fatal("single record should validate")
	}
}

func TestSortRecords(t *testing.T) {
	records := []Record{rec("b", 0, 0, 5), rec("a", 0, 0, 10), rec("a", 0, 0, 1), rec("b", 0, 0, 0)}
	SortRecords(records)
	if records[0].ObjectID != "a" || records[0].Time != t0.Add(time.Second) {
		t.Fatalf("first record = %+v", records[0])
	}
	if records[3].ObjectID != "b" || records[3].Time != t0.Add(5*time.Second) {
		t.Fatalf("last record = %+v", records[3])
	}
}

func TestRemoveOutliers(t *testing.T) {
	records := []Record{
		rec("u1", 0, 0, 0),
		rec("u1", 10, 0, 1),    // 10 m/s, fine
		rec("u1", 5000, 0, 2),  // ~5 km/s jump, outlier
		rec("u1", 20, 0, 3),    // consistent with last accepted (10,0)
		rec("u1", 20, 0, 3),    // duplicate timestamp, co-located: dropped silently
		rec("u2", 1000, 0, 0),  // different object, always kept first
		rec("u2", 1010, 0, 10), // 1 m/s
	}
	out := RemoveOutliers(records, 70)
	if len(out) != 5 {
		t.Fatalf("RemoveOutliers kept %d records, want 5: %+v", len(out), out)
	}
	for _, r := range out {
		if r.Position.X == 5000 {
			t.Fatal("outlier survived")
		}
	}
	// Disabled gate returns input unchanged.
	if got := RemoveOutliers(records, 0); len(got) != len(records) {
		t.Fatal("maxSpeed<=0 should disable filtering")
	}
	if got := RemoveOutliers(nil, 70); len(got) != 0 {
		t.Fatal("nil input should return empty")
	}
}

func TestSmooth(t *testing.T) {
	records := []Record{
		rec("u1", 0, 0, 0), rec("u1", 10, 0, 1), rec("u1", 100, 0, 2), rec("u1", 30, 0, 3), rec("u1", 40, 0, 4),
	}
	out := Smooth(records, 1)
	if len(out) != len(records) {
		t.Fatalf("Smooth changed record count")
	}
	// Middle record should be pulled toward neighbours: (10+100+30)/3.
	want := (10.0 + 100.0 + 30.0) / 3.0
	if out[2].Position.X != want {
		t.Fatalf("smoothed x = %v want %v", out[2].Position.X, want)
	}
	// Timestamps untouched.
	if !out[2].Time.Equal(records[2].Time) {
		t.Fatal("smoothing must not change timestamps")
	}
	// w=0 is a no-op returning the same values.
	same := Smooth(records, 0)
	if same[2].Position.X != 100 {
		t.Fatal("w=0 should not smooth")
	}
	// Smoothing must not leak across objects.
	mixed := []Record{rec("a", 0, 0, 0), rec("a", 10, 0, 1), rec("b", 1000, 0, 0), rec("b", 1010, 0, 1)}
	sm := Smooth(mixed, 2)
	if sm[0].Position.X > 10 || sm[2].Position.X < 900 {
		t.Fatalf("smoothing leaked across objects: %+v", sm)
	}
}

func TestCleanChain(t *testing.T) {
	records := []Record{
		rec("u1", 0, 0, 0), rec("u1", 5, 0, 1), rec("u1", 9000, 0, 2), rec("u1", 10, 0, 3),
	}
	out := Clean(records, DefaultCleaningConfig())
	for _, r := range out {
		if r.Position.X > 100 {
			t.Fatalf("outlier survived Clean: %+v", r)
		}
	}
	if len(out) != 3 {
		t.Fatalf("Clean kept %d records", len(out))
	}
}

func TestIdentifyTrajectoriesGapSplitting(t *testing.T) {
	cfg := SegmentationConfig{MaxTimeGap: 10 * time.Minute, MaxDistanceGap: 1000, MinRecords: 2}
	var records []Record
	// First bout: 5 records 1s apart.
	for i := 0; i < 5; i++ {
		records = append(records, rec("u1", float64(i)*10, 0, i))
	}
	// Gap of 20 minutes, second bout of 3 records.
	for i := 0; i < 3; i++ {
		records = append(records, rec("u1", 100+float64(i)*10, 0, 1200+i))
	}
	// Spatial jump of 5 km within short time, third bout.
	for i := 0; i < 4; i++ {
		records = append(records, rec("u1", 6000+float64(i)*10, 0, 1210+i))
	}
	trajs := IdentifyTrajectories(records, cfg)
	if len(trajs) != 3 {
		t.Fatalf("got %d trajectories, want 3", len(trajs))
	}
	if len(trajs[0].Records) != 5 || len(trajs[1].Records) != 3 || len(trajs[2].Records) != 4 {
		t.Fatalf("unexpected split sizes: %d %d %d", len(trajs[0].Records), len(trajs[1].Records), len(trajs[2].Records))
	}
	for _, tr := range trajs {
		if err := tr.Validate(); err != nil {
			t.Fatalf("trajectory %s invalid: %v", tr.ID, err)
		}
	}
	// IDs should be unique.
	if trajs[0].ID == trajs[1].ID || trajs[1].ID == trajs[2].ID {
		t.Fatal("trajectory ids are not unique")
	}
}

func TestIdentifyTrajectoriesMinRecordsAndObjects(t *testing.T) {
	cfg := SegmentationConfig{MaxTimeGap: time.Minute, MinRecords: 5}
	var records []Record
	for i := 0; i < 3; i++ { // too short, dropped
		records = append(records, rec("u1", float64(i), 0, i))
	}
	for i := 0; i < 6; i++ {
		records = append(records, rec("u2", float64(i), 0, i))
	}
	trajs := IdentifyTrajectories(records, cfg)
	if len(trajs) != 1 || trajs[0].ObjectID != "u2" {
		t.Fatalf("trajectories = %+v", trajs)
	}
	if got := IdentifyTrajectories(nil, cfg); got != nil {
		t.Fatal("nil input should produce nil")
	}
}

func TestSplitDaily(t *testing.T) {
	cfg := SegmentationConfig{MaxTimeGap: 6 * time.Hour, MinRecords: 2}
	var records []Record
	day1 := time.Date(2010, 3, 15, 9, 0, 0, 0, time.UTC)
	day2 := time.Date(2010, 3, 16, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		records = append(records, Record{ObjectID: "u1", Position: geo.Pt(float64(i), 0), Time: day1.Add(time.Duration(i) * time.Minute)})
	}
	for i := 0; i < 10; i++ {
		records = append(records, Record{ObjectID: "u1", Position: geo.Pt(float64(i), 0), Time: day2.Add(time.Duration(i) * time.Minute)})
	}
	trajs := SplitDaily(records, cfg)
	if len(trajs) != 2 {
		t.Fatalf("SplitDaily produced %d trajectories, want 2", len(trajs))
	}
	if !strings.Contains(trajs[0].ID, "2010-03-15") || !strings.Contains(trajs[1].ID, "2010-03-16") {
		t.Fatalf("daily ids = %q, %q", trajs[0].ID, trajs[1].ID)
	}
	if SplitDaily(nil, cfg) != nil {
		t.Fatal("nil input should produce nil")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var records []Record
	for i := 0; i < 100; i++ {
		records = append(records, Record{
			ObjectID: "taxi-1",
			Position: geo.Pt(rng.Float64()*1000, rng.Float64()*1000),
			Time:     t0.Add(time.Duration(i) * time.Second),
		})
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, records); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := readAll(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(back) != len(records) {
		t.Fatalf("round trip length %d != %d", len(back), len(records))
	}
	for i := range back {
		if back[i].ObjectID != records[i].ObjectID || !back[i].Time.Equal(records[i].Time) {
			t.Fatalf("record %d mismatch", i)
		}
		if !back[i].Position.Equal(records[i].Position, 1e-9) {
			t.Fatalf("record %d position mismatch", i)
		}
	}
}

// readAll collects ReadCSV's records, stopping at the first error.
func readAll(r io.Reader) ([]Record, error) {
	var out []Record
	for rec, err := range ReadCSV(r) {
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
	return out, nil
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := readAll(strings.NewReader("")); err == nil {
		t.Fatal("empty csv should error")
	}
	if _, err := readAll(strings.NewReader("object,x,y,time\nu1,notanumber,2,2010-01-01T00:00:00Z")); err == nil {
		t.Fatal("bad x should error")
	}
	if _, err := readAll(strings.NewReader("object,x,y,time\nu1,1,bad,2010-01-01T00:00:00Z")); err == nil {
		t.Fatal("bad y should error")
	}
	// Non-finite coordinates parse as floats but are refused, naming the
	// row and the column.
	for _, v := range []string{"NaN", "+Inf", "-Inf"} {
		for col, row := range map[string]string{"x": "u1," + v + ",2", "y": "u1,1," + v} {
			src := "object,x,y,time\nu1,1,2,2010-01-01T00:00:00Z\n" + row + ",2010-01-01T00:00:01Z\n"
			_, err := readAll(strings.NewReader(src))
			if want := "row 3 " + col + ": "; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s in %s: %v, want an error containing %q", v, col, err, want)
			}
		}
	}
	if _, err := readAll(strings.NewReader("object,x,y,time\nu1,1,2,notatime")); err == nil {
		t.Fatal("bad time should error")
	}
	if _, err := readAll(strings.NewReader("object,x,y,time\nu1,1,2")); err == nil {
		t.Fatal("short row should error")
	}
	// No header: the first row is data, which must not be skipped silently.
	recs, err := readAll(strings.NewReader("u1,1,2,2010-01-01T00:00:00Z\nu1,3,4,2010-01-01T00:00:01Z\n"))
	if err == nil || !strings.Contains(err.Error(), `"object,x,y,time"`) || len(recs) != 0 {
		t.Fatalf("headerless csv: %v, %d records; want the header error and no records", err, len(recs))
	}
	// Header only: no records, no error.
	recs, err = readAll(strings.NewReader("object,x,y,time\n"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("header-only csv: %v, %d records", err, len(recs))
	}
	// The sequence stops after the first error it yields.
	yielded := 0
	for _, err := range ReadCSV(strings.NewReader("object,x,y,time\nu1,1,bad,2010-01-01T00:00:00Z\nu1,1,2,2010-01-01T00:00:00Z\n")) {
		yielded++
		if err == nil {
			t.Fatal("a record was yielded after the error")
		}
	}
	if yielded != 1 {
		t.Fatalf("yielded %d values, want the one error", yielded)
	}
}

func TestDefaultConfigs(t *testing.T) {
	c := DefaultCleaningConfig()
	if c.MaxSpeed <= 0 || c.SmoothingWindow <= 0 {
		t.Fatalf("unexpected cleaning defaults: %+v", c)
	}
	s := DefaultSegmentationConfig()
	if s.MaxTimeGap <= 0 || s.MaxDistanceGap <= 0 || s.MinRecords <= 0 {
		t.Fatalf("unexpected segmentation defaults: %+v", s)
	}
}

// FuzzReadCSV drives the CSV reader with arbitrary input, seeded with a
// valid file and the error cases of TestReadCSVErrors. Invariant: every
// record it yields has finite coordinates and comes back unchanged from
// WriteCSV then ReadCSV; nothing panics.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"object,x,y,time\nu1,1.5,-2,2010-01-01T00:00:00Z\n\"u 2\",3e2,4,2010-01-01T00:00:01.25+02:00\n",
		"object,x,y,time\nu1,NaN,2,2010-01-01T00:00:00Z\n",
		"object,x,y,time\nu1,1,-Inf,2010-01-01T00:00:00Z\n",
		"object,x,y,time\nu1,1,2,notatime\n",
		"object,x,y,time\nu1,1,2\n",
		"u1,1,2,2010-01-01T00:00:00Z\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		recs, _ := readAll(strings.NewReader(src))
		for _, r := range recs {
			if math.IsNaN(r.Position.X) || math.IsInf(r.Position.X, 0) || math.IsNaN(r.Position.Y) || math.IsInf(r.Position.Y, 0) {
				t.Fatalf("%q yields a non-finite position %v", src, r.Position)
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, recs); err != nil {
			t.Fatalf("WriteCSV of the records of %q: %v", src, err)
		}
		back, err := readAll(&buf)
		if err != nil || len(back) != len(recs) {
			t.Fatalf("%q: %d records come back as %d (%v) from %q", src, len(recs), len(back), err, buf.String())
		}
		for i, r := range recs {
			if b := back[i]; b.ObjectID != r.ObjectID || b.Position != r.Position || !b.Time.Equal(r.Time) {
				t.Fatalf("%q: record %d %+v comes back as %+v", src, i, r, b)
			}
		}
	})
}
