package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"semitri/internal/store"
)

// RecoverStats summarises one recovery.
type RecoverStats struct {
	// Segments is the number of segment files visited.
	Segments int
	// FramesApplied is the number of log frames replayed into the store.
	FramesApplied int
	// Torn reports that replay stopped before the physical end of the log:
	// a truncated, bit-flipped or otherwise corrupt frame was found and the
	// committed prefix before it was kept. A torn final frame after a crash
	// mid-flush is the expected case.
	Torn bool
	// TornSegment and TornOffset locate the first corrupt byte when Torn.
	TornSegment string
	TornOffset  int64
	// QuarantinedSegments counts intact segments found BEHIND the tear — a
	// mid-log tear, which a crash cannot produce (it points at disk
	// corruption). Their frames cannot be replayed over the gap, so they
	// are renamed aside with a ".quarantined" suffix for forensics rather
	// than deleted. Zero for the expected torn-final-frame case.
	QuarantinedSegments int
}

// Recover rebuilds a store from a log directory by pure log replay: a fresh
// store plus ReplayInto over every segment in order. It knows nothing of
// checkpoint bases — a directory that has been checkpointed recovers through
// segment.Recover, which re-commits the segments' runs as the frozen base
// and then replays the tail the same way. shards is the stripe count of the rebuilt store (values below 1
// mean the default). A missing or empty directory recovers to an empty store.
// After recovering, open the log with Open (which starts a fresh segment) and
// attach it to the returned store.
func Recover(dir string, shards int) (*store.Store, RecoverStats, error) {
	var stats RecoverStats
	st := store.NewSharded(shards)
	if err := ReplayInto(dir, st, &stats); err != nil {
		return nil, stats, err
	}
	return st, stats, nil
}

// ReplayInto replays the directory's log segments, in order, into an
// existing store, accumulating into stats: the segment store
// (internal/segment) rebuilds its base from binary segments first and then
// calls this for the frames committed after the last freeze.
//
// Replay stops at the first torn or corrupt frame and keeps everything
// before it; it never panics on damaged input. A detected tear is also
// repaired on disk — the damaged segment is truncated at the tear (or
// removed when nothing useful remains) and later segments are quarantined —
// so the log ends cleanly and frames appended by a reopened Log are never
// stranded behind old damage at the next recovery. A missing directory
// replays nothing.
func ReplayInto(dir string, st *store.Store, stats *RecoverStats) error {
	if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		stats.Segments++
		applied, tornAt, err := replaySegment(seg.Path, st)
		stats.FramesApplied += applied
		if err != nil {
			return err
		}
		if tornAt >= 0 {
			// The log's physical prefix ends here; frames in later segments
			// were written after the damaged one and must not be replayed
			// over the gap. Repair the log so it ends cleanly at the tear.
			stats.Torn = true
			stats.TornSegment = filepath.Base(seg.Path)
			stats.TornOffset = tornAt
			stats.QuarantinedSegments = len(segs) - i - 1
			if err := repairTear(seg, tornAt, segs[i+1:]); err != nil {
				return err
			}
			SyncDir(dir)
			break
		}
	}
	return nil
}

// repairTear makes the log end exactly where replay stopped: the damaged
// segment is truncated at the tear (removed entirely when even its header
// is damaged — its replayed prefix, if any, stays in the live log), and
// segments behind the tear are renamed aside with a ".quarantined" suffix.
// Those later segments hold committed frames a mid-log tear has stranded —
// they cannot be replayed over the gap, but they are evidence of disk
// corruption worth keeping, not state to silently destroy.
func repairTear(seg SeqFile, tornAt int64, later []SeqFile) error {
	if tornAt <= headerSize {
		if err := os.Remove(seg.Path); err != nil {
			return fmt.Errorf("wal: repair: %w", err)
		}
	} else if err := os.Truncate(seg.Path, tornAt); err != nil {
		return fmt.Errorf("wal: repair: %w", err)
	}
	for _, s := range later {
		if err := os.Rename(s.Path, s.Path+".quarantined"); err != nil {
			return fmt.Errorf("wal: repair: %w", err)
		}
	}
	return nil
}

// replaySegment applies one segment file's frames to the store through
// replayBlob. The file is read through a Blob, closed (unmapped) before the
// caller repairs a tear.
func replaySegment(path string, st *store.Store) (applied int, tornAt int64, err error) {
	b, err := OpenBlob(path)
	if err != nil {
		return 0, -1, fmt.Errorf("wal: open segment: %w", err)
	}
	defer b.Close()
	return replayBlob(b, path, st)
}

// replayBlob applies the frames of one segment's bytes to the store. It
// returns the number of frames applied and, when the segment ends in a torn
// or corrupt frame, the byte offset of the damage (-1 for a clean end). The
// returned error reports apply failures and a log at another format version
// only — physical damage is a normal condition expressed through the
// offset: a short or foreign header, a length past the end of the file, a
// checksum mismatch or an undecodable payload. path names the segment in
// errors.
func replayBlob(b Blob, path string, st *store.Store) (applied int, tornAt int64, err error) {
	if err := CheckFileHeader(b, path, "log", segmentMagic, formatVersion); err == ErrFrame {
		return 0, 0, nil // truncated or damaged header: whole segment is torn
	} else if err != nil {
		// Not damage: a log another release wrote. Its frames cannot be
		// replayed, and repairing it as a tear would delete it.
		return 0, -1, fmt.Errorf("wal: %w", err)
	}
	var buf []byte
	interned := make(map[string]string)
	for off := int64(headerSize); off < b.Size(); {
		payload, n, err := b.Frame(off, &buf)
		if err != nil {
			return applied, off, nil
		}
		m, err := decodeMutation(payload, interned)
		if err != nil {
			return applied, off, nil // CRC-valid but undecodable: corrupt
		}
		if err := st.Apply(m); err != nil {
			return applied, -1, fmt.Errorf("wal: apply %s frame at %d: %w", filepath.Base(path), off, err)
		}
		applied++
		off += int64(n)
	}
	return applied, -1, nil
}
