package semitri_test

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"semitri"
)

// goldenExportSHA256 is the sha256 of the Store.Save export of the workload
// below. The parity suites compare two stores built by the same code, so a
// change that alters the export everywhere passes them; this constant pins
// the export across changes. Update it only for a deliberate export change.
const goldenExportSHA256 = "f40925c3a99a1f85b783a6a2be594ba75865ea0fa65abf0b6fdee56665241942"

// TestSaveExportGolden ingests a seeded 3-user × 2-day people workload three
// ways — ProcessRecords, FanIn with 4 workers, and a durable stream with
// forced freezes recovered from its segments — and checks every export
// against the pinned hash.
func TestSaveExportGolden(t *testing.T) {
	city := newTestCity(t, 1, 3000)
	records := peopleRecords(t, city, 3, 2, 9)
	check := func(label string, export []byte) {
		t.Helper()
		sum := sha256.Sum256(export)
		if got := hex.EncodeToString(sum[:]); got != goldenExportSHA256 {
			t.Errorf("%s: export sha256 %s (%d bytes), want %s", label, got, len(export), goldenExportSHA256)
		}
	}

	batch := newTestPipeline(t, city, semitri.DefaultConfig())
	if _, err := batch.ProcessRecords(records); err != nil {
		t.Fatal(err)
	}
	check("ProcessRecords", exportStore(t, batch.Store()))

	fanned := newTestPipeline(t, city, semitri.DefaultConfig())
	sp := fanned.NewStream()
	if err := sp.FanIn(slices.Values(records), 4, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	check("FanIn workers=4", exportStore(t, fanned.Store()))

	dir := t.TempDir()
	durable := newTestPipeline(t, city, durableConfig(dir))
	sp = durable.NewStream()
	for i, r := range records {
		if _, err := sp.Add(r); err != nil {
			t.Fatal(err)
		}
		if (i+1)%(len(records)/4) == 0 {
			if err := durable.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	check("durable, segments recovered", recoverExport(t, dir))
}
