package semitri_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

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

// goldenWALLogSHA256 is the sha256 of the write-ahead log a sequential
// durable ingest of the workload below writes before its first checkpoint.
// The recovery suites compare a replay with the store that wrote it, so a
// change to what the log frames, or in what order, passes them as long as
// replay still rebuilds the store; this constant pins the log bytes across
// changes. Update it only for a deliberate change of the log.
const goldenWALLogSHA256 = "a74d10e58fc1c5db1475b7a5f109af1474ad6e9eeaef9e270e09227ceaedda88"

// TestWALLogGolden streams the TestSaveExportGolden workload through one
// FanIn worker into a durable pipeline whose log flushes once, at the
// stream's Close, and checks the bytes of the one log segment against the
// pinned hash.
func TestWALLogGolden(t *testing.T) {
	city := newTestCity(t, 1, 3000)
	records := peopleRecords(t, city, 3, 2, 9)
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Durability.FlushInterval = time.Hour
	p := newTestPipeline(t, city, cfg)
	defer p.Close()
	sp := p.NewStream()
	if err := sp.FanIn(slices.Values(records), 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("want one log segment, got %v (%v)", logs, err)
	}
	data, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != goldenWALLogSHA256 {
		t.Errorf("log sha256 %s (%d bytes), want %s", got, len(data), goldenWALLogSHA256)
	}
}
