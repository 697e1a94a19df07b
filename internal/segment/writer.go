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
	// cols holds the tuple runs' column frames, written after the data
	// frames at finish; a run's directory entry records its frame's offset
	// in cols until then.
	cols []byte
	enc  wal.Encoder

	foot Footer
	dict wal.Dict // every string of the data frames, for the footer
}

// newWriter opens a segment writer for the given sequence number in dir.
func newWriter(dir string, seq uint64) (*Writer, error) {
	path := wal.SeqPath(dir, filePrefix, seq, fileSuffix)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<16), path: path, tmp: tmp}
	if _, err := w.bw.Write(wal.AppendFileHeader(nil, fileMagic, formatVersion)); err != nil {
		w.abort()
		return nil, err
	}
	w.off = wal.FileHeaderSize
	return w, nil
}

// add appends one emitted run as a data frame, its strings added to the
// segment's dictionary, and records its directory entry. It is
// CollectTail's emit callback: the mutation's payload slices are only
// stable until it returns, which is fine — the frame encoder serialises
// them immediately (and strings are immutable).
func (w *Writer) add(m store.Mutation) error {
	var span wal.Span
	cols := int64(len(w.cols))
	if isTupleRun(m.Op) {
		span = wal.SpanOf(m.Tuples)
	}
	w.buf = wal.AppendMutationFrame(w.buf[:0], m, &w.dict)
	if _, err := w.bw.Write(w.buf); err != nil {
		return err
	}
	if isTupleRun(m.Op) {
		w.cols = appendColumns(w.cols, &w.enc, m.Tuples, &w.dict)
	}
	w.foot.Runs = append(w.foot.Runs, runMeta(m, span, w.off, cols))
	w.off += int64(len(w.buf))
	return nil
}

// runMeta is the directory entry of the run m, framed at off, whose tuples
// (if any) span span and whose column frame (a tuple run's) is at cols: the
// writer files it, and a read checks a decoded frame against it.
func runMeta(m store.Mutation, span wal.Span, off, cols int64) RunMeta {
	meta := RunMeta{Op: m.Op, Object: m.ObjectID, Traj: m.TrajectoryID,
		Interp: m.Interpretation, Start: m.Start, Off: off}
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
		meta.Stops, meta.TimeMin, meta.TimeMax = span.Stops, span.Min, span.Max
		meta.Cols = cols
	}
	return meta
}

// finish seals the segment: column frames, footer frame, trailer, fsync,
// rename into place, directory sync. On success the file is durable under
// its final name.
func (w *Writer) finish() error {
	if _, err := w.bw.Write(w.cols); err != nil {
		return err
	}
	for i := range w.foot.Runs {
		if isTupleRun(w.foot.Runs[i].Op) {
			w.foot.Runs[i].Cols += w.off
		}
	}
	w.foot.Dict = w.dict.Strings
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
	wal.SyncDir(filepath.Dir(w.path))
	return nil
}

// abort discards the temp file.
func (w *Writer) abort() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	os.Remove(w.tmp)
}
