package mmap

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestGuard: a read past the end of a file truncated under its mapping
// faults, and Guard returns that as an error; a read that does not fault
// returns the read's own error; any other panic goes on.
func TestGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact")
	if err := os.WriteFile(path, make([]byte, 3<<12), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer Unmap(b)
	sum := 0
	read := func() error {
		for _, c := range b {
			sum += int(c)
		}
		return nil
	}
	if err := Guard(read); err != nil {
		t.Fatalf("reading an intact mapping: %v", err)
	}
	errRead := errors.New("read failed")
	if err := Guard(func() error { return errRead }); err != errRead {
		t.Fatalf("Guard returned %v, want the read's own error", err)
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if err := Guard(read); err == nil {
		t.Fatal("reading a truncated mapping returned no error")
	}
	defer func() {
		if r := recover(); r != "not a fault" {
			t.Fatalf("Guard swallowed or changed a panic: %v", r)
		}
	}()
	Guard(func() error { panic("not a fault") })
}

// TestMapEmpty: an empty file maps to an empty slice, which Unmap accepts.
func TestMapEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := Map(path)
	if err != nil || len(b) != 0 {
		t.Fatalf("Map of an empty file: %d bytes, %v", len(b), err)
	}
	if err := Unmap(b); err != nil {
		t.Fatal(err)
	}
	if _, err := Map(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("Map of a missing file returned no error")
	}
}
