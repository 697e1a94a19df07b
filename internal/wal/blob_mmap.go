//go:build unix && !semitri_nommap

package wal

import (
	"os"
	"syscall"
)

// mmapBlob serves frames straight out of a read-only mapping.
type mmapBlob struct {
	data []byte
}

// OpenBlob maps the file read-only. The descriptor is closed immediately —
// the mapping outlives it.
func OpenBlob(path string) (Blob, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() == 0 {
		return &mmapBlob{}, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(fi.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	return &mmapBlob{data: data}, nil
}

func (m *mmapBlob) Frame(off int64, _ *[]byte) ([]byte, int, error) {
	if off < 0 || off > int64(len(m.data)) {
		return nil, 0, ErrFrame
	}
	return ParseFrame(m.data[off:])
}

func (m *mmapBlob) Bytes(off, n int64, _ *[]byte) ([]byte, error) {
	if off < 0 || n < 0 || off+n > int64(len(m.data)) {
		return nil, ErrFrame
	}
	return m.data[off : off+n], nil
}

func (m *mmapBlob) Size() int64 { return int64(len(m.data)) }

func (m *mmapBlob) Close() error {
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	return syscall.Munmap(data)
}
