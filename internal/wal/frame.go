package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"semitri/internal/store"
)

// This file is the one owner of the on-disk byte format. The log and the
// segment store (internal/segment) both build on it, so the two formats
// cannot drift apart:
//
//   - one codec: the mutation frames of both files, and the segment footer
//     (at footer version 3), are written by Encoder and read by Decoder,
//     strings inline in the log and as indexes into the segment's
//     dictionary (Dict) in a segment;
//   - one frame: [u32 length][u32 CRC-32C][payload], built by AppendFrame
//     and checked by ParseFrame and nothing else;
//   - one frame reader: Blob, a memory map with a pread fallback, serves
//     WAL replay and cold segment reads alike;
//   - one file header, [4-byte magic][u32 version], written by
//     AppendFileHeader and checked by CheckFileHeader;
//   - one naming scheme for sequence-numbered files (SeqPath, ListSeqFiles)
//     and one directory sync (SyncDir).

// FrameHeaderSize is the size of the [length][CRC] header preceding every
// frame payload.
const FrameHeaderSize = frameHeaderSize

// FileHeaderSize is the size of the [magic][u32 version] header that opens
// every file of either format.
const FileHeaderSize = headerSize

// ErrFrame reports a frame (or file header) whose bytes do not hold
// together.
var ErrFrame = errors.New("wal: invalid frame")

// AppendFrame appends one frame — the [length][CRC] header, then payload —
// to buf and returns the extended buffer. It is the one framing routine of
// both on-disk formats: the log's and the segment's mutation frames go
// through AppendMutationFrame, the segment footer through this directly.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, frameCRC(payload))
	return append(buf, payload...)
}

// AppendMutationFrame appends one framed mutation to buf and returns the
// extended buffer: AppendFrame over the mutation's encoding, so frames built
// here replay through the same decoder. The log passes a nil dict and
// writes strings inline; a segment passes its dictionary, which the
// frame's strings are added to and written as indexes of. The payload is
// encoded behind room left for the header; AppendFrame then writes the
// header into that room and the payload onto itself, so no second buffer
// is needed.
func AppendMutationFrame(buf []byte, m store.Mutation, dict *Dict) []byte {
	at := len(buf)
	e := Encoder{b: append(buf, make([]byte, frameHeaderSize)...), dict: dict}
	encodeMutation(&e, m)
	AppendFrame(e.b[:at], e.b[at+frameHeaderSize:])
	return e.b
}

// ParseFrame validates the frame at the start of b and returns its payload
// (aliasing b — callers must not retain it past the life of the backing
// buffer) together with the frame's total size in bytes. A truncated header,
// an impossible length or a checksum mismatch returns ErrFrame. It is the
// only check of a frame's length and CRC in either format.
func ParseFrame(b []byte) (payload []byte, size int, err error) {
	if len(b) < frameHeaderSize {
		return nil, 0, ErrFrame
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxFrame || int(n) > len(b)-frameHeaderSize {
		return nil, 0, ErrFrame
	}
	payload = b[frameHeaderSize : frameHeaderSize+int(n)]
	if frameCRC(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0, ErrFrame
	}
	return payload, frameHeaderSize + int(n), nil
}

// Blob is one file's bytes, read a frame at a time: a read-only memory map
// on unix (cold data occupies page cache, not Go heap, and unread frames
// cost nothing), positional reads everywhere else and under the
// semitri_nommap build tag, which forces the fallback onto unix for
// testing. OpenBlob opens one. Close it before the file is truncated or
// removed.
type Blob interface {
	// Frame parses the frame starting at off through ParseFrame. The
	// payload aliases either the mapping or *buf — valid until the next
	// Frame call with the same buf, or Close. A frame whose length runs
	// past the end of the file is ErrFrame, found before any buffer is
	// sized from it.
	Frame(off int64, buf *[]byte) (payload []byte, size int, err error)
	// Bytes returns n raw bytes at off (header and trailer probes).
	Bytes(off, n int64, buf *[]byte) ([]byte, error)
	Size() int64
	Close() error
}

// bytesBlob is a Blob over bytes in memory: the memory map's, or a test's.
type bytesBlob []byte

func (b bytesBlob) Frame(off int64, _ *[]byte) ([]byte, int, error) {
	if off < 0 || off > int64(len(b)) {
		return nil, 0, ErrFrame
	}
	return ParseFrame(b[off:])
}

func (b bytesBlob) Bytes(off, n int64, _ *[]byte) ([]byte, error) {
	if off < 0 || n < 0 || off+n > int64(len(b)) {
		return nil, ErrFrame
	}
	return b[off : off+n], nil
}

func (b bytesBlob) Size() int64 { return int64(len(b)) }

func (b bytesBlob) Close() error { return nil }

// AppendFileHeader appends a file header — magic, then version — to b.
func AppendFileHeader(b []byte, magic [4]byte, version uint32) []byte {
	b = append(b, magic[:]...)
	return binary.LittleEndian.AppendUint32(b, version)
}

// CheckFileHeader checks the header that opens the file in b. A file too
// short to hold one, or one with another magic, is damage: ErrFrame.
// Another version is not damage but a file another release wrote:
// CheckVersion's error, naming path and the format.
func CheckFileHeader(b Blob, path, format string, magic [4]byte, version uint32) error {
	var buf []byte
	hdr, err := b.Bytes(0, headerSize, &buf)
	if err != nil || [4]byte(hdr[:4]) != magic {
		return ErrFrame
	}
	return CheckVersion(path, format, binary.LittleEndian.Uint32(hdr[4:]), version)
}

// CheckVersion returns nil when got is the version this build reads, want,
// and otherwise an error naming path, the format and both versions. Its
// data cannot be read, and it must not be repaired as damage either:
// recovery refuses the directory and leaves it untouched.
func CheckVersion(path, format string, got, want uint32) error {
	if got == want {
		return nil
	}
	return fmt.Errorf("%s is at %s format version %d, this build reads version %d; "+
		"re-ingest the source data into a fresh data directory", path, format, got, want)
}

// SeqFile is one sequence-numbered file: prefix, sequence number, suffix.
type SeqFile struct {
	Seq  uint64
	Path string
}

// SeqPath returns the path in dir of the file numbered seq.
func SeqPath(dir, prefix string, seq uint64, suffix string) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", prefix, seq, suffix))
}

// ListSeqFiles returns dir's files named prefix, a decimal number, suffix,
// sorted by number. Names whose middle is not a number are not ours and
// are skipped.
func ListSeqFiles(dir, prefix, suffix string) ([]SeqFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var files []SeqFile
	for _, ent := range entries {
		name := ent.Name()
		if len(name) < len(prefix)+len(suffix) || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		if seq, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64); err == nil {
			files = append(files, SeqFile{Seq: seq, Path: filepath.Join(dir, name)})
		}
	}
	slices.SortFunc(files, func(a, b SeqFile) int { return cmp.Compare(a.Seq, b.Seq) })
	return files, nil
}

// SyncDir fsyncs a directory so entries created, renamed or removed in it
// survive a crash (best-effort — not every platform allows syncing
// directories).
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
