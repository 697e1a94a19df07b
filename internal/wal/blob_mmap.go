//go:build unix && !semitri_nommap

package wal

import (
	"os"
	"syscall"
)

// mmapBlob serves frames straight out of a read-only mapping.
type mmapBlob struct{ bytesBlob }

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
	return &mmapBlob{data}, nil
}

func (m *mmapBlob) Close() error {
	if m.bytesBlob == nil {
		return nil
	}
	data := m.bytesBlob
	m.bytesBlob = nil
	return syscall.Munmap(data)
}
