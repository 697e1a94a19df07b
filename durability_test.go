package semitri_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"semitri"
	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/gps"
	"semitri/internal/obs"
	"semitri/internal/segment"
	"semitri/internal/store"
	"semitri/internal/wal"
)

// durableConfig returns the default pipeline config with the WAL enabled on
// dir and a short group-commit window so tests exercise real flush cycles.
func durableConfig(dir string) semitri.Config {
	cfg := semitri.DefaultConfig()
	cfg.Durability = semitri.Durability{Dir: dir, FlushInterval: 5 * time.Millisecond}
	return cfg
}

// TestDurableRecoveryParity is the crash-recovery counterpart of
// TestBatchStreamParity: the same person-days are streamed into a durable
// pipeline, the data directory is recovered into a fresh store (exactly what
// a process restart after kill -9 does), and the recovered store must export
// the same bytes as the live one at the last durable point. It then
// checkpoints and recovers again, covering the segments + empty-tail path,
// and finally restarts a pipeline over the directory.
func TestDurableRecoveryParity(t *testing.T) {
	city := newTestCity(t, 1, 3000)
	records := peopleRecords(t, city, 2, 2, 5)
	dir := t.TempDir()

	p := newTestPipeline(t, city, durableConfig(dir))
	sp := p.NewStream()
	for _, r := range records {
		if _, err := sp.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sp.Close(); err != nil { // Close syncs the WAL
		t.Fatal(err)
	}
	live := exportStore(t, p.Store())

	// Pure log replay (no checkpoint has run): what a kill -9 restart sees.
	rec, stats, err := wal.Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FramesApplied == 0 {
		t.Fatal("recovery replayed no frames")
	}
	assertSameExport(t, "log replay", live, exportStore(t, rec))

	// Checkpoint + recover: frozen segments plus (empty) tail must give the
	// same store, proving freeze and replay agree on every table — and the
	// live store must still export the same bytes from its cold tier.
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	assertSameExport(t, "live store after checkpoint", live, exportStore(t, p.Store()))
	assertSameExport(t, "segments + tail", live, recoverExport(t, dir))

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Restarting over the same directory recovers the identical store from
	// its segments and keeps a configured shard count.
	cfg := durableConfig(dir)
	cfg.StoreShards = 7
	restarted, err := semitri.New(semitri.Sources{
		Landuse: city.Landuse, Roads: city.Roads, POIs: city.POIs,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if !restarted.Durable() {
		t.Fatal("restarted pipeline is not durable")
	}
	if restarted.Recovery().ColdSegments == 0 {
		t.Fatal("restart after a checkpoint folded no segments")
	}
	if got := restarted.Store().ShardCount(); got != 7 {
		t.Fatalf("restarted store has %d shards, want 7", got)
	}
	assertSameExport(t, "restarted pipeline", live, exportStore(t, restarted.Store()))
}

// TestDurableRecoveryParityConcurrent runs the same parity check with
// multiple objects ingested from concurrent goroutines while checkpoints
// race the ingestion — the -race configuration of the durability
// acceptance criterion.
func TestDurableRecoveryParityConcurrent(t *testing.T) {
	city := newTestCity(t, 2, 3000)
	const objects = 6
	records := peopleRecords(t, city, objects, 1, 17)
	perObject := map[string][]gps.Record{}
	for _, r := range records {
		perObject[r.ObjectID] = append(perObject[r.ObjectID], r)
	}
	feeds := make([][]gps.Record, 0, len(perObject))
	for _, recs := range perObject {
		feeds = append(feeds, recs)
	}
	dir := t.TempDir()
	p := newTestPipeline(t, city, durableConfig(dir))
	sp := p.NewStream()

	const workers = 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for f := w; f < len(feeds); f += workers {
				for _, r := range feeds[f] {
					if _, err := sp.Add(r); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	// Checkpoints racing live ingestion: every recovery below must still be
	// exact, because mutations racing the freeze stay in retained log
	// segments and replay idempotently.
	cpDone := make(chan struct{})
	go func() {
		defer close(cpDone)
		for i := 0; i < 3; i++ {
			if err := p.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-cpDone
	if t.Failed() {
		t.FailNow()
	}
	if _, err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	live := exportStore(t, p.Store())

	// Mid-run checkpoints froze part of the store, so the base is segments
	// and the rest is the log tail.
	assertSameExport(t, "segments + tail", live, recoverExport(t, dir))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	assertSameExport(t, "after the final checkpoint", live, recoverExport(t, dir))
}

// TestDurabilityStorageShim pins what is left of the removed storage knob:
// Durability.Storage accepts "" and "segments" with identical behaviour and
// rejects every other value — the removed "json" mode included — before the
// directory is touched. It also checks the refusal of a JSON-mode directory
// at the API users actually call.
func TestDurabilityStorageShim(t *testing.T) {
	city := newTestCity(t, 1, 3000)
	records := peopleRecords(t, city, 1, 1, 5)
	sources := semitri.Sources{Landuse: city.Landuse, Roads: city.Roads, POIs: city.POIs}

	var exports [][]byte
	for _, mode := range []string{"", "segments"} {
		cfg := durableConfig(t.TempDir())
		cfg.Durability.Storage = mode
		p := newTestPipeline(t, city, cfg)
		if _, err := p.ProcessRecords(records); err != nil {
			t.Fatal(err)
		}
		if err := p.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := p.Store().ColdSegmentCount(); got == 0 {
			t.Fatalf("Storage %q: checkpoint froze no segment", mode)
		}
		exports = append(exports, exportStore(t, p.Store()))
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	assertSameExport(t, `Storage "" vs "segments"`, exports[0], exports[1])

	for _, mode := range []string{"json", "bogus"} {
		dir := filepath.Join(t.TempDir(), "data")
		cfg := durableConfig(dir)
		cfg.Durability.Storage = mode
		if _, err := semitri.New(sources, cfg); err == nil || !strings.Contains(err.Error(), mode) {
			t.Fatalf("Storage %q: New err = %v, want a rejection naming the mode", mode, err)
		}
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("Storage %q: rejected New still created the data directory", mode)
		}
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := semitri.New(sources, durableConfig(dir)); err == nil || !strings.Contains(err.Error(), "snapshot.json") {
		t.Fatalf("New over a JSON-mode directory: err = %v, want a refusal naming snapshot.json", err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 || ents[0].Name() != "snapshot.json" {
		t.Fatalf("refused New changed the directory: %v (%v)", ents, err)
	}
}

// TestHealthReportsOwnLogOnly pins Pipeline.Health to the pipeline's own
// log: the process-wide semitri_checkpoint_errored gauge (here left at 1 by
// "some other pipeline") must not degrade a non-durable or a closed pipeline,
// while a pipeline whose own checkpoint fails does report it.
func TestHealthReportsOwnLogOnly(t *testing.T) {
	city := newTestCity(t, 1, 3000)
	mem := newTestPipeline(t, city, semitri.DefaultConfig())
	closed := newTestPipeline(t, city, durableConfig(t.TempDir()))
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "data")
	broken := newTestPipeline(t, city, durableConfig(dir))
	defer broken.Close()

	obs.CheckpointErrored.Set(1)
	defer obs.CheckpointErrored.Set(0)
	if r := mem.Health(); len(r) != 0 {
		t.Fatalf("non-durable pipeline reports %q", r)
	}
	if r := closed.Health(); len(r) != 0 {
		t.Fatalf("closed pipeline reports %q", r)
	}
	if r := broken.Health(); len(r) != 0 {
		t.Fatalf("healthy durable pipeline reports %q", r)
	}
	// Pull the data directory out from under the pipeline (chmod does not
	// bind when tests run as root): the checkpoint cannot rotate the log.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := broken.Checkpoint(); err == nil {
		t.Fatal("checkpoint into a removed directory succeeded")
	}
	if r := broken.Health(); len(r) == 0 {
		t.Fatal("pipeline whose checkpoint failed reports healthy")
	}
}

// TestHealthReportsUndecodableSegmentRun pins the cold-read reason of
// Health: a restart over a segment whose tuple run has a valid CRC but a
// payload the codec refuses opens (recovery reads run headers only), a
// read of that run comes back short, and Health names the skipped run.
func TestHealthReportsUndecodableSegmentRun(t *testing.T) {
	city := newTestCity(t, 1, 3000)
	dir := t.TempDir()
	p := newTestPipeline(t, city, durableConfig(dir))
	tp := &core.EpisodeTuple{Kind: episode.Stop, TimeIn: time.Unix(10, 0).UTC(), TimeOut: time.Unix(20, 0).UTC()}
	if err := p.Store().AppendStructuredTuples("t", "o", "merged", tp); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // the final checkpoint freezes the tuple
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", paths, err)
	}
	r, err := segment.Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	runs := r.Footer().Runs
	r.Close()
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		if run.Traj != "t" {
			continue
		}
		payload, _, err := wal.ParseFrame(data[run.Off:])
		if err != nil {
			t.Fatal(err)
		}
		for i := range payload {
			payload[i] = 0xff // no op has this number
		}
		copy(data[run.Off:], wal.AppendFrame(nil, payload))
	}
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	restarted := newTestPipeline(t, city, durableConfig(dir))
	defer restarted.Close()
	if r := restarted.Health(); len(r) != 0 {
		t.Fatalf("restart over the segment reports %q before any read", r)
	}
	if st, ok := restarted.Store().Structured("t", "merged"); !ok || len(st.Tuples) != 0 {
		t.Fatalf("read of the undecodable run returned %v", st)
	}
	if r := restarted.Health(); len(r) != 1 || !strings.HasPrefix(r[0], "segment: 1 ") {
		t.Fatalf("Health after a read of an undecodable run = %q, want one segment reason", r)
	}
}

// exportStore returns the store's JSON export (Store.Save): deterministic and
// independent of shard layout and of what is frozen, so equal bytes mean
// equal record tables, raw trajectories, episode sequences and structured
// interpretations.
func exportStore(t *testing.T, st *store.Store) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "export.json")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recoverExport recovers dir the way a restart does (segment runs + log
// tail) and returns the recovered store's export.
func recoverExport(t *testing.T, dir string) []byte {
	t.Helper()
	st, tier, _, err := segment.Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	return exportStore(t, st)
}

// assertSameExport fails with the first differing region of two exports.
func assertSameExport(t *testing.T, label string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	window := func(b []byte) []byte { return b[max(i-80, 0):min(i+80, len(b))] }
	t.Fatalf("%s: export differs from the live store's at byte %d (%d vs %d bytes)\n live      …%s…\n recovered …%s…",
		label, i, len(want), len(got), window(want), window(got))
}

// TestWALPrefixesKeepTrajectoryRecords cuts the log of a multi-object ingest
// at every frame boundary and recovers each prefix, as a crash at that point
// would. A trajectory frame must never reach the log ahead of the records it
// covers, so every trajectory recovered from any prefix has all its records,
// in order, in its object's recovered record run.
func TestWALPrefixesKeepTrajectoryRecords(t *testing.T) {
	city := newTestCity(t, 1, 3000)
	records := peopleRecords(t, city, 2, 1, 5)
	dir := t.TempDir()
	cfg := durableConfig(dir)
	// One group commit at Close: every frame is in the one batch, in the
	// order the store logged it.
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
	cuts := []int{wal.FileHeaderSize}
	for off := wal.FileHeaderSize; off < len(data); {
		_, n, err := wal.ParseFrame(data[off:])
		if err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		off += n
		cuts = append(cuts, off)
	}

	prefix := filepath.Join(t.TempDir(), filepath.Base(logs[0]))
	trajectories := 0
	for _, cut := range cuts {
		if err := os.WriteFile(prefix, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, _, err := wal.Recover(filepath.Dir(prefix), 0)
		if err != nil {
			t.Fatalf("prefix of %d bytes: %v", cut, err)
		}
		for _, id := range st.TrajectoryIDs("") {
			tr, _ := st.Trajectory(id)
			n, _ := st.TrajectoryLen(id)
			run := st.Records(tr.ObjectID)
			if len(tr.Records) != n || len(tr.Records) == 0 || !containsRun(run, tr.Records) {
				t.Fatalf("prefix of %d bytes: trajectory %s holds %d of %d records, not all in %s's %d recovered records",
					cut, id, len(tr.Records), n, tr.ObjectID, len(run))
			}
			trajectories++
		}
	}
	if trajectories == 0 {
		t.Fatal("no prefix recovered a trajectory")
	}
}

// containsRun reports whether sub appears as a contiguous run of run.
func containsRun(run, sub []gps.Record) bool {
	for i := 0; i+len(sub) <= len(run); i++ {
		if slices.EqualFunc(run[i:i+len(sub)], sub, func(a, b gps.Record) bool {
			return a.ObjectID == b.ObjectID && a.Position == b.Position && a.Time.Equal(b.Time)
		}) {
			return true
		}
	}
	return false
}
