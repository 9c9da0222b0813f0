// Package mmap serves snapshot artifacts as read-only memory mappings, the
// way Lucene's MMapDirectory serves index files: a reader indexes the bytes
// at memory speed, and only the pages it touches become resident.
//
// A mapping has one failure mode a read(2) does not: a file truncated under
// its mapping faults on the pages past its new end. Guard turns that fault
// into an error, so every entry point that reads a mapping runs its read
// under Guard, and no string or slice that aliases a mapping may outlive
// the guarded call that produced it.
package mmap

import (
	"fmt"
	"os"
	"runtime/debug"
	"syscall"
)

// Map maps the file at path read-only and shared, and closes its
// descriptor: the mapping keeps the file's contents reachable, even after
// the file is removed, until Unmap. An empty file maps to an empty slice.
func Map(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return []byte{}, nil
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("mmap: %s: %d bytes do not fit the address space", path, size)
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap: %s: %w", path, err)
	}
	return b, nil
}

// Unmap releases a mapping Map returned. Nothing that aliases b may be
// read afterwards.
func Unmap(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	return syscall.Munmap(b)
}

// Guard runs read, which may read a mapping, on the calling goroutine. A
// fault on a mapping inside it becomes an error; any other panic
// propagates.
func Guard(read func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(interface{ Addr() uintptr })
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("mmap: fault reading a mapped artifact at %#x (was the file truncated?)", f.Addr())
		}
	}()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	return read()
}
