package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"semitri/internal/geo"
	"semitri/internal/gps"
	"semitri/internal/store"
)

// TestRecordTimesUTCAcrossFreezeAndRecovery pins how stored record times
// read back: as the input instant in UTC, without its zone or monotonic
// reading, whether the record sits in the heap, in a frozen segment or in a
// store recovered from the segments — so the Save export does not change
// when the content moves between them.
func TestRecordTimesUTCAcrossFreezeAndRecovery(t *testing.T) {
	times := []time.Time{
		time.Date(2024, 5, 1, 10, 0, 0, 5, time.FixedZone("", 2*3600)),
		time.Now(), // carries a monotonic reading
		{},
		time.Date(1969, 7, 20, 20, 17, 40, 123456789, time.UTC),
		time.Date(2024, 5, 1, 8, 0, 0, 999999999, time.UTC),
	}
	recs := make([]gps.Record, len(times))
	want := make([]gps.Record, len(times))
	for i, at := range times {
		recs[i] = gps.Record{ObjectID: "o", Position: geo.Pt(float64(i), 1), Time: at}
		want[i] = recs[i]
		want[i].Time = at.Round(0).UTC()
	}

	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	if err := st.PutTrajectory("o-T0", "o", st.PutRecords(recs), len(recs)); err != nil {
		t.Fatal(err)
	}
	check := func(st *store.Store, label string) []byte {
		t.Helper()
		if got := st.Records("o"); !slices.Equal(got, want) {
			t.Fatalf("%s Records:\n got %v\nwant %v", label, got, want)
		}
		if tr, ok := st.Trajectory("o-T0"); !ok || !slices.Equal(tr.Records, want) {
			t.Fatalf("%s Trajectory records differ from the UTC input", label)
		}
		path := filepath.Join(t.TempDir(), label+".json")
		if err := st.Save(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	heap := check(st, "heap")
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	if frozen := check(st, "frozen"); !bytes.Equal(heap, frozen) {
		t.Fatalf("export changed across a freeze:\n%s\n%s", heap, frozen)
	}
	tier.Close()
	st2, tier2, _, err := Recover(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tier2.Close()
	if recovered := check(st2, "recovered"); !bytes.Equal(heap, recovered) {
		t.Fatalf("export changed across recovery:\n%s\n%s", heap, recovered)
	}
}
