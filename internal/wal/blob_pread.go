//go:build !unix || semitri_nommap

package wal

import (
	"encoding/binary"
	"os"
)

// preadBlob reads each frame with two positional reads: the 8-byte header
// for the length, then the whole frame into the caller's reusable buffer.
type preadBlob struct {
	f  *os.File
	sz int64
}

// OpenBlob opens the file for positional reads.
func OpenBlob(path string) (Blob, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &preadBlob{f: f, sz: fi.Size()}, nil
}

func (p *preadBlob) Frame(off int64, buf *[]byte) ([]byte, int, error) {
	hdr, err := p.Bytes(off, frameHeaderSize, buf)
	if err != nil {
		return nil, 0, err
	}
	// Read no further than the end of the file: a length past it then fails
	// ParseFrame like any other bad length, without sizing a buffer from it.
	n := min(frameHeaderSize+int64(binary.LittleEndian.Uint32(hdr)), p.sz-off)
	b, err := p.Bytes(off, n, buf)
	if err != nil {
		return nil, 0, err
	}
	return ParseFrame(b)
}

func (p *preadBlob) Bytes(off, n int64, buf *[]byte) ([]byte, error) {
	if off < 0 || n < 0 || off+n > p.sz {
		return nil, ErrFrame
	}
	b := *buf
	if int64(cap(b)) < n {
		b = make([]byte, n)
		*buf = b
	}
	b = b[:n]
	if _, err := p.f.ReadAt(b, off); err != nil {
		return nil, ErrFrame
	}
	return b, nil
}

func (p *preadBlob) Size() int64 { return p.sz }

func (p *preadBlob) Close() error { return p.f.Close() }
