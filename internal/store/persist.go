package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
)

// The JSON document Save writes is an export, not a recovery format: nothing
// reads it back (durable state lives in internal/segment and internal/wal).
// It is shard-layout independent — Save merges every stripe into one
// document with sorted keys — so a store of given content exports
// byte-identically regardless of stripe layout, insertion order or how much
// of it is frozen into cold segments: the tests' whole-store equality oracle.

type jsonRecord struct {
	Object string    `json:"object"`
	X      float64   `json:"x"`
	Y      float64   `json:"y"`
	Time   time.Time `json:"time"`
}

type jsonTrajectory struct {
	ID       string       `json:"id"`
	ObjectID string       `json:"object_id"`
	Records  []jsonRecord `json:"records"`
}

type jsonStruct struct {
	ID             string      `json:"id"`
	ObjectID       string      `json:"object_id"`
	Interpretation string      `json:"interpretation"`
	Tuples         []jsonTuple `json:"tuples"`
}

type jsonTuple struct {
	Kind        string            `json:"kind"`
	Place       *core.Place       `json:"place,omitempty"`
	TimeIn      time.Time         `json:"time_in"`
	TimeOut     time.Time         `json:"time_out"`
	Annotations []core.Annotation `json:"annotations,omitempty"`
	// Episode preserves the tuple's back-pointer to its stop/move episode,
	// which the query engine's spatial path reads (episode bounds/centre).
	Episode *episode.Episode `json:"episode,omitempty"`
}

// Save writes the store contents as JSON to the given path, creating parent
// directories as needed. The document is streamed row by row with a
// json.Encoder straight to the temporary file: each row (one object's
// records, one trajectory, one structured interpretation) is copied under
// its stripe lock and encoded immediately, so Save's memory footprint scales
// with the largest single row, not with the store. Writers running
// concurrently with Save land entirely in or entirely out of the file per
// row, never half-serialised.
//
// The write is crash-safe: the document lands in a temporary file in the
// target directory and is renamed into place, so an export taken during
// live ingestion (or interrupted by a crash) can never be read torn — any
// existing file at path stays intact until the new one is complete.
func (s *Store) Save(path string) error {
	dir := filepath.Dir(path)
	if dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("store: mkdir: %w", err)
		}
	}
	// The temp file must live in the target directory: os.Rename is only
	// atomic within one filesystem.
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	discard := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	bw := bufio.NewWriterSize(tmp, 64<<10)
	if err := s.writeSnapshot(bw); err != nil {
		return discard(fmt.Errorf("store: encode: %w", err))
	}
	if err := bw.Flush(); err != nil {
		return discard(fmt.Errorf("store: write: %w", err))
	}
	// Flush the data before the rename: without it a power failure after
	// the rename could surface an empty or partial destination file (rename
	// alone is only atomic against process crashes).
	if err := tmp.Sync(); err != nil {
		return discard(fmt.Errorf("store: sync: %w", err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: close: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: chmod: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: rename: %w", err)
	}
	// Persist the rename itself: fsync the directory so the new entry
	// survives a crash (best-effort — not every platform allows it).
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// writeSnapshot streams the export document to w. Keys are collected and
// sorted up front (ids only — O(keys) memory), then each row is copied out
// of its stripe under the stripe's lock and encoded immediately.
func (s *Store) writeSnapshot(w *bufio.Writer) error {
	// field emits one `"key":value` pair, comma-separated within its block.
	val := func(v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	}
	key := func(first bool, k string) error {
		if !first {
			if err := w.WriteByte(','); err != nil {
				return err
			}
		}
		if err := val(k); err != nil {
			return err
		}
		return w.WriteByte(':')
	}

	if _, err := w.WriteString(`{"records":{`); err != nil {
		return err
	}
	for i, obj := range s.recordObjectIDs() {
		if err := key(i == 0, obj); err != nil {
			return err
		}
		recs := s.Records(obj)
		rows := make([]jsonRecord, len(recs))
		for j, r := range recs {
			rows[j] = jsonRecord{Object: r.ObjectID, X: r.Position.X, Y: r.Position.Y, Time: r.Time}
		}
		if err := val(rows); err != nil {
			return err
		}
	}
	if _, err := w.WriteString(`},"trajectories":[`); err != nil {
		return err
	}
	first := true
	for _, id := range s.TrajectoryIDs("") {
		t, ok := s.Trajectory(id)
		if !ok {
			continue
		}
		if !first {
			if err := w.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		rows := make([]jsonRecord, len(t.Records))
		for j, r := range t.Records {
			rows[j] = jsonRecord{Object: r.ObjectID, X: r.Position.X, Y: r.Position.Y, Time: r.Time}
		}
		if err := val(jsonTrajectory{ID: t.ID, ObjectID: t.ObjectID, Records: rows}); err != nil {
			return err
		}
	}
	if _, err := w.WriteString(`],"episodes":{`); err != nil {
		return err
	}
	for i, id := range s.episodeTrajectoryIDs() {
		if err := key(i == 0, id); err != nil {
			return err
		}
		if err := val(s.Episodes(id)); err != nil {
			return err
		}
	}
	if _, err := w.WriteString(`},"structured":{`); err != nil {
		return err
	}
	for i, id := range s.StructuredIDs() {
		if err := key(i == 0, id); err != nil {
			return err
		}
		if err := w.WriteByte('{'); err != nil {
			return err
		}
		firstInterp := true
		for _, interp := range s.Interpretations(id) {
			st, ok := s.Structured(id, interp)
			if !ok {
				continue
			}
			if err := key(firstInterp, interp); err != nil {
				return err
			}
			firstInterp = false
			js := jsonStruct{ID: id, ObjectID: st.ObjectID, Interpretation: interp}
			for _, tp := range st.Tuples {
				js.Tuples = append(js.Tuples, jsonTuple{
					Kind:        tp.Kind.String(),
					Place:       tp.Place,
					TimeIn:      tp.TimeIn,
					TimeOut:     tp.TimeOut,
					Annotations: tp.Annotations.All(),
					Episode:     tp.Episode,
				})
			}
			if err := val(js); err != nil {
				return err
			}
		}
		if err := w.WriteByte('}'); err != nil {
			return err
		}
	}
	_, err := w.WriteString(`}}`)
	return err
}

// recordObjectIDs returns the ids of every object owning raw records, sorted.
func (s *Store) recordObjectIDs() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for obj := range sh.records {
			out = append(out, obj)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// episodeTrajectoryIDs returns the ids of every trajectory with stored
// episodes, sorted.
func (s *Store) episodeTrajectoryIDs() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id := range sh.episodes {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}
