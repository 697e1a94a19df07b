package segment

import (
	"bufio"
	"encoding/binary"
	"os"
	"path/filepath"

	"semitri/internal/episode"
	"semitri/internal/store"
	"semitri/internal/wal"
)

// Writer streams one segment file: data frames appended mutation by
// mutation, then a footer built from the run metadata accumulated along the
// way. The file is written to a temporary name and renamed into place by
// finish, after an fsync — a crash mid-write leaves only a temp file that
// recovery ignores and deletes.
type Writer struct {
	f    *os.File
	bw   *bufio.Writer
	path string // final path
	tmp  string
	off  int64 // next frame's byte offset
	buf  []byte

	foot    Footer
	objects map[string]bool // distinct tuple-owning objects, for the bloom
}

// newWriter opens a segment writer for the given sequence number in dir.
func newWriter(dir string, seq uint64) (*Writer, error) {
	path := filepath.Join(dir, fileName(seq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<16), path: path, tmp: tmp,
		objects: map[string]bool{}}
	var hdr [headerSize]byte
	copy(hdr[0:4], fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], formatVersion)
	if _, err := w.bw.Write(hdr[:]); err != nil {
		w.abort()
		return nil, err
	}
	w.off = headerSize
	return w, nil
}

// add appends one emitted run as a data frame and records its directory
// entry. It is CollectTail's emit callback: the mutation's payload slices are
// only stable until it returns, which is fine — the frame encoder serialises
// them immediately.
func (w *Writer) add(m store.Mutation) error {
	meta := RunMeta{Op: m.Op, Object: m.ObjectID, Traj: m.TrajectoryID,
		Interp: m.Interpretation, Start: m.Start, Off: w.off}
	switch m.Op {
	case store.MutPutRecords:
		meta.Count = len(m.Records)
	case store.MutPutTrajectory:
		meta.Count = m.Count
	case store.MutPutEpisodes, store.MutAppendEpisodes:
		meta.Count = len(m.Episodes)
		for _, e := range m.Episodes {
			if e.Kind == episode.Stop {
				meta.Stops++
			}
		}
	case store.MutPutStructured, store.MutAppendTuples:
		meta.Count = len(m.Tuples)
		w.summarise(&m)
	}
	w.buf = wal.AppendMutationFrame(w.buf[:0], m)
	if _, err := w.bw.Write(w.buf); err != nil {
		return err
	}
	w.off += int64(len(w.buf))
	w.foot.Runs = append(w.foot.Runs, meta)
	return nil
}

// summarise folds one tuple run into the planner summary.
func (w *Writer) summarise(m *store.Mutation) {
	s := &w.foot.Summary
	if s.Tuples == nil {
		s.Tuples = map[string]int{}
		s.AnnKeys = map[string]int{}
	}
	s.Tuples[m.Interpretation] += len(m.Tuples)
	if len(m.Tuples) > 0 && m.ObjectID != "" {
		w.objects[m.ObjectID] = true
	}
	for _, tp := range m.Tuples {
		if tp.Kind == episode.Stop {
			s.Stops++
		} else {
			s.Moves++
		}
		// Zero TimeIns fold into TimeMin so untimed tuples keep the segment
		// unprunable by an upper time bound.
		if s.TimeMin.IsZero() || tp.TimeIn.Before(s.TimeMin) {
			s.TimeMin = tp.TimeIn
		}
		if tp.TimeOut.After(s.TimeMax) {
			s.TimeMax = tp.TimeOut
		}
		for _, a := range tp.Annotations.All() {
			s.AnnKeys[a.Key]++
		}
		if tp.Episode != nil {
			if s.GeomCount == 0 {
				s.GeomBounds = tp.Episode.Bounds
			} else {
				s.GeomBounds = s.GeomBounds.Union(tp.Episode.Bounds)
			}
			s.GeomCount++
		}
	}
}

// runs reports how many runs were added so far.
func (w *Writer) runs() int { return len(w.foot.Runs) }

// finish seals the segment: footer frame, trailer, fsync, rename into place,
// directory sync. On success the file is durable under its final name.
func (w *Writer) finish() error {
	s := &w.foot.Summary
	s.Objects = store.NewObjectFilter(len(w.objects))
	for obj := range w.objects {
		s.Objects.Add(obj)
	}
	w.buf = wal.AppendFrame(w.buf[:0], encodeFooter(&w.foot))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(w.buf)))
	w.buf = append(w.buf, trailerMagic[:]...)
	if _, err := w.bw.Write(w.buf); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.f = nil
	if err := os.Rename(w.tmp, w.path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(w.path))
}

// abort discards the temp file.
func (w *Writer) abort() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	os.Remove(w.tmp)
}

// syncDir fsyncs a directory so a rename inside it is durable. Filesystems
// that cannot sync directories report an error we ignore, matching the WAL.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}
