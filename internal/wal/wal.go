// Package wal is semitri's durability subsystem: a write-ahead log over the
// semantic trajectory store, plus the checkpoint protocol and crash recovery
// of the log tail.
//
// The store reports every committed mutation — raw records, trajectories,
// episodes, structured tuples, annotation merges — through its
// store.MutationLog hook (the same observer path that feeds the query
// indexes). The log serialises each mutation, as it is handed over, into
// one binary frame
//
//	[u32 payload length][u32 CRC-32C (Castagnoli) of payload][payload]
//
// and appends it to the current segment file, in call order. Writes are
// group-committed: LogMutation only appends the frame to an in-memory
// buffer, and a background flusher writes and fsyncs the accumulated batch
// once per FlushInterval, so the streaming hot path pays one sync per batch
// rather than one per record. The durability window is therefore at most
// one flush interval wide under the default FsyncInterval policy;
// FsyncAlways narrows it to zero (a write+sync per mutation), FsyncNever
// leaves syncing to the OS page cache.
//
// Segments rotate at SegmentSize. A checkpoint rotates, has its caller
// persist everything committed before the rotation as the new recovery base
// (internal/segment freezes the store's heap tail into an immutable binary
// segment in the same directory) and then deletes the log segments older
// than the rotation point; because every mutation in those segments committed
// to the store before the rotation, the base is guaranteed to contain them.
// Mutations racing the checkpoint land in segments it keeps and replay
// idempotently (positional appends skip what the base already holds), so
// checkpoints never block ingestion.
//
// ReplayInto replays the remaining segments, in order, over a recovered base
// (Recover is the same over an empty store: pure log replay). Replay stops
// cleanly at the first torn or corrupt frame — a crash mid-flush leaves at
// most one torn frame at the tail — keeping every fully committed frame
// before it and never panicking on damaged input.
//
// The package also owns the byte format of the segment store's files
// (frame.go): one codec, one frame check, one frame reader and one file
// header for both.
package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"semitri/internal/obs"
	"semitri/internal/store"
)

// FsyncPolicy selects when logged frames are fsynced to stable storage.
type FsyncPolicy int

const (
	// FsyncInterval is the group-commit default: the background flusher
	// writes and fsyncs the accumulated batch once per FlushInterval.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways writes and fsyncs on every logged mutation (durable to the
	// last mutation, at a heavy per-record cost).
	FsyncAlways
	// FsyncNever writes batches on the flush interval but never fsyncs; the
	// OS page cache decides when bytes reach the disk.
	FsyncNever
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	}
	return "interval"
}

// Defaults used when the corresponding Options field is zero.
const (
	DefaultFlushInterval = 50 * time.Millisecond
	DefaultSegmentSize   = 16 << 20
)

const (
	segmentPrefix = "wal-"
	segmentSuffix = ".log"
	// segment header: magic + format version.
	headerSize = 8
	// frame header: payload length + CRC.
	frameHeaderSize = 8
	// maxFrame bounds a frame's payload; larger lengths are corruption.
	maxFrame = 1 << 28
	// softFlushBytes triggers an early flush when the pending buffer grows
	// past it, bounding memory between ticks under heavy ingestion and
	// keeping the recycled batch buffers small enough to stay cache-warm.
	softFlushBytes = 256 << 10
)

var segmentMagic = [4]byte{'S', 'T', 'W', 'L'}

// formatVersion 2 logs a raw trajectory as a range of its object's record
// run; logs written at another version are refused, not replayed.
const formatVersion = 2

// Options configures a Log.
type Options struct {
	// Dir is the log directory (created if absent). Log segments and the
	// checkpoint base live directly inside it.
	Dir string
	// FlushInterval is the group-commit window (default
	// DefaultFlushInterval). Shorter intervals narrow the durability window;
	// longer ones amortise the fsync over more records.
	FlushInterval time.Duration
	// SegmentSize is the rotation threshold in bytes (default
	// DefaultSegmentSize).
	SegmentSize int64
	// Fsync selects the sync policy (default FsyncInterval).
	Fsync FsyncPolicy
}

func (o Options) withDefaults() Options {
	if o.FlushInterval <= 0 {
		o.FlushInterval = DefaultFlushInterval
	}
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultSegmentSize
	}
	return o
}

// Log is an open write-ahead log. It implements store.MutationLog; attach it
// with store.AttachLog before writers start. All methods are safe for
// concurrent use.
type Log struct {
	opts Options

	// mu guards the pending frame buffer. LogMutation is called with a
	// store stripe lock held, so this critical section stays tiny (an
	// append) and never does I/O. buf and spare alternate (double
	// buffering): a flush takes ownership of buf and leaves spare behind,
	// then recycles the written buffer as the next spare, so steady-state
	// logging allocates nothing.
	mu     sync.Mutex
	buf    []byte
	spare  []byte
	closed bool

	// fmu guards the open segment file, its size and the sticky I/O error.
	fmu  sync.Mutex
	f    *os.File
	seq  uint64
	size int64
	err  error

	// cpMu serialises checkpoints.
	cpMu  sync.Mutex
	cpErr error

	// lastFlush is the Unix-nano time of the last successful flush — the
	// flusher's liveness signal, read by health checks via LastFlush.
	lastFlush atomic.Int64

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

var encPool = sync.Pool{New: func() any { return &Encoder{b: make([]byte, 0, 512)} }}

// Open creates or opens the log directory and starts a fresh segment after
// the highest existing one (never appending into a possibly-torn tail).
// The background flusher starts immediately.
func Open(opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	seq := uint64(0)
	if len(segs) > 0 {
		seq = segs[len(segs)-1].Seq
	}
	l := &Log{
		opts: opts,
		seq:  seq,
		// Both batch buffers start at the kick threshold plus burst slack, so
		// steady-state logging never reallocates (growth churn feeds the GC,
		// whose marking cost would land on the ingest hot path).
		buf:   make([]byte, 0, softFlushBytes+(128<<10)),
		spare: make([]byte, 0, softFlushBytes+(128<<10)),
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	l.fmu.Lock()
	err = l.rotateLocked()
	l.fmu.Unlock()
	if err != nil {
		return nil, err
	}
	l.wg.Add(1)
	go l.flusher()
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.opts.Dir }

// FlushInterval returns the effective group-commit window (defaults
// applied). Health checks scale their flusher-stall threshold off it.
func (l *Log) FlushInterval() time.Duration { return l.opts.FlushInterval }

// LogMutation implements store.MutationLog: it serialises the mutation into
// one frame and appends it to the pending buffer, so frames reach the log in
// the order the store hands mutations over. Called under the store's stripe
// lock, so it must not block on I/O; actual writing and syncing happen on
// the flusher goroutine (or inline under FsyncAlways, which is the one
// policy that accepts paying the sync on the mutating goroutine).
func (l *Log) LogMutation(m store.Mutation) {
	e := encPool.Get().(*Encoder)
	e.b = AppendMutationFrame(e.b[:0], m, nil)

	l.mu.Lock()
	dropped := l.closed
	if !dropped {
		l.buf = append(l.buf, e.b...)
	}
	pending := len(l.buf)
	l.mu.Unlock()
	encPool.Put(e)
	if dropped {
		return
	}
	obs.WALFrames.Inc()
	if l.opts.Fsync == FsyncAlways {
		_ = l.Flush()
		return
	}
	// A full buffer wakes the flusher early for a plain write (no fsync):
	// the kick bounds memory, while the sync cadence — the group-commit
	// durability window — stays owned by the ticker.
	if pending >= softFlushBytes {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
}

// flusher is the group-commit goroutine: one write (+ sync, policy
// permitting) per FlushInterval or early kick.
func (l *Log) flusher() {
	defer l.wg.Done()
	ticker := time.NewTicker(l.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-ticker.C:
			_ = l.Flush()
		case <-l.kick:
			_ = l.flushNoSync()
		}
	}
}

// flushNoSync writes the pending batch without fsyncing — the memory-bound
// path between group commits.
func (l *Log) flushNoSync() error {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	return l.flushLocked(false)
}

// Flush writes the pending frame batch to the current segment and, unless
// the policy is FsyncNever, fsyncs it. It returns the log's sticky I/O
// error, if any: once a write fails the log stops accepting data and every
// durability call reports the failure.
func (l *Log) Flush() error {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	return l.flushLocked(l.opts.Fsync != FsyncNever)
}

// flushLocked swaps the pending buffer out, writes it (fsyncing when sync
// is set) and recycles it as the next spare. Caller holds fmu (which also
// serialises flushers, so at most one batch is in flight and the spare
// handoff cannot race).
func (l *Log) flushLocked(sync bool) error {
	start := time.Now()
	l.mu.Lock()
	data := l.buf
	l.buf = l.spare[:0]
	l.spare = nil
	l.mu.Unlock()
	err := l.writeLocked(data, sync)
	l.mu.Lock()
	if l.spare == nil {
		l.spare = data[:0]
	}
	l.mu.Unlock()
	if err == nil {
		// Every successful pass is a liveness signal, but only non-empty
		// batches are latency observations.
		now := time.Now()
		l.lastFlush.Store(now.UnixNano())
		obs.WALLastFlushUnixNano.Set(now.UnixNano())
		if len(data) > 0 {
			obs.WALFlushNs.ObserveNs(now.Sub(start).Nanoseconds())
		}
	} else {
		obs.WALErrored.Set(1)
	}
	return err
}

// LastFlush returns the wall-clock time of the last successful flush pass
// (the zero time before the first one). A healthy log's flusher refreshes it
// every FlushInterval even when idle, so a stale value means the flusher has
// stalled or the log is failing its writes.
func (l *Log) LastFlush() time.Time {
	ns := l.lastFlush.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// writeLocked appends data to the segment, rotating first when the segment
// is full. Caller holds fmu.
func (l *Log) writeLocked(data []byte, sync bool) error {
	if l.err != nil {
		return l.err
	}
	if len(data) == 0 {
		return nil
	}
	if l.size > headerSize && l.size+int64(len(data)) > l.opts.SegmentSize {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(data); err != nil {
		l.err = fmt.Errorf("wal: write: %w", err)
		return l.err
	}
	l.size += int64(len(data))
	obs.WALBytes.Add(int64(len(data)))
	if sync {
		if err := datasync(l.f); err != nil {
			l.err = fmt.Errorf("wal: sync: %w", err)
			return l.err
		}
		obs.WALFsyncs.Inc()
	}
	return nil
}

// rotateLocked closes the current segment (fully synced) and starts the
// next one. Caller holds fmu.
func (l *Log) rotateLocked() error {
	if l.err != nil {
		return l.err
	}
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("wal: sync: %w", err)
			return l.err
		}
		if err := l.f.Close(); err != nil {
			l.err = fmt.Errorf("wal: close segment: %w", err)
			return l.err
		}
		l.f = nil
	}
	next := l.seq + 1
	f, err := os.OpenFile(segmentPath(l.opts.Dir, next), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		l.err = fmt.Errorf("wal: create segment: %w", err)
		return l.err
	}
	if _, err := f.Write(AppendFileHeader(nil, segmentMagic, formatVersion)); err != nil {
		f.Close()
		l.err = fmt.Errorf("wal: write header: %w", err)
		return l.err
	}
	l.f = f
	l.seq = next
	l.size = headerSize
	SyncDir(l.opts.Dir)
	return nil
}

// Sync flushes the pending batch and forces an fsync regardless of policy:
// after Sync returns nil, every mutation logged before the call is on
// stable storage.
func (l *Log) Sync() error {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	if err := l.flushLocked(false); err != nil {
		return err
	}
	// Sync the file unconditionally: kick-path flushes write without
	// fsyncing, so an empty pending buffer does not mean a synced file.
	// (Rotation syncs a segment before closing it, so unsynced bytes only
	// ever live in the current file.)
	if l.f != nil {
		if err := datasync(l.f); err != nil {
			l.err = fmt.Errorf("wal: sync: %w", err)
			obs.WALErrored.Set(1)
		} else {
			obs.WALFsyncs.Inc()
		}
	}
	return l.err
}

// Err returns the log's sticky I/O or checkpoint error, if any.
func (l *Log) Err() error {
	l.fmu.Lock()
	err := l.err
	l.fmu.Unlock()
	if err != nil {
		return err
	}
	l.cpMu.Lock()
	defer l.cpMu.Unlock()
	return l.cpErr
}

// Checkpoint makes the store's current state the log's new recovery base:
// it rotates to a fresh segment, has save persist everything committed before
// the rotation and, on success, deletes the segments older than the rotation
// point. The tiered segment store plugs its incremental freeze in as save.
// Safe to run while writers keep logging — mutations racing save stay in
// retained segments and replay idempotently. A checkpoint that crashes
// between save and truncation only leaves extra segments behind, which also
// replay idempotently.
func (l *Log) Checkpoint(save func() error) error {
	start := time.Now()
	err := l.checkpoint(save)
	if err != nil {
		obs.CheckpointErrored.Set(1)
		return err
	}
	obs.CheckpointErrored.Set(0)
	obs.WALCheckpointNs.ObserveNs(time.Since(start).Nanoseconds())
	return nil
}

func (l *Log) checkpoint(save func() error) error {
	l.cpMu.Lock()
	defer l.cpMu.Unlock()
	if err := l.Flush(); err != nil {
		return err
	}
	l.fmu.Lock()
	err := l.rotateLocked()
	boundary := l.seq
	l.fmu.Unlock()
	if err != nil {
		return err
	}
	// From here on a failure is the checkpoint's own, not the log's: sticky
	// until the next checkpoint succeeds, and prefixed so a health probe can
	// tell it from a write/sync error.
	l.cpErr = nil
	if err := l.saveAndTruncate(save, boundary); err != nil {
		l.cpErr = fmt.Errorf("checkpoint: %w", err)
	}
	return l.cpErr
}

// saveAndTruncate runs save, then deletes the segments below boundary.
func (l *Log) saveAndTruncate(save func() error, boundary uint64) error {
	if err := save(); err != nil {
		return err
	}
	segs, err := listSegments(l.opts.Dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg.Seq < boundary {
			if err := os.Remove(seg.Path); err != nil {
				return err
			}
		}
	}
	SyncDir(l.opts.Dir)
	return nil
}

// StartAutoCheckpoint runs cp every interval until Close. Errors from cp are
// the caller's to make sticky (Checkpoint's are, see Err); the schedule never
// stops on them. A non-positive interval disables the schedule.
func (l *Log) StartAutoCheckpoint(cp func() error, interval time.Duration) {
	if interval <= 0 {
		return
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-l.done:
				return
			case <-ticker.C:
				_ = cp()
			}
		}
	}()
}

// Close flushes and syncs the remaining frames, stops the background
// goroutines and closes the segment. Mutations logged after Close are
// dropped; quiesce writers (close the stream processor) first.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return l.Err()
	}
	l.closed = true
	l.mu.Unlock()
	close(l.done)
	l.wg.Wait()
	syncErr := l.Sync()
	l.fmu.Lock()
	if l.f != nil {
		if err := l.f.Close(); err != nil && l.err == nil {
			l.err = fmt.Errorf("wal: close segment: %w", err)
		}
		l.f = nil
	}
	err := l.err
	l.fmu.Unlock()
	if syncErr != nil {
		return syncErr
	}
	if err != nil {
		return err
	}
	l.cpMu.Lock()
	defer l.cpMu.Unlock()
	return l.cpErr
}

func segmentPath(dir string, seq uint64) string {
	return SeqPath(dir, segmentPrefix, seq, segmentSuffix)
}

// listSegments returns the directory's log segments sorted by sequence
// number.
func listSegments(dir string) ([]SeqFile, error) {
	return ListSeqFiles(dir, segmentPrefix, segmentSuffix)
}
