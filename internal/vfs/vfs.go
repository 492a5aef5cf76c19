// Package vfs abstracts the file-system operations behind the server's
// durability paths (journal append, group-commit fsync, snapshot
// rotation, quarantine) so every one of them can be driven by a
// deterministic fault injector in tests.
//
// Two implementations:
//
//   - OS — the real file system, used in production. SyncDir fsyncs a
//     directory, which is what makes an atomic rename durable (the
//     classic crash-consistency requirement rename alone does not meet).
//   - Fault (fault.go) — a memory-backed file system with an explicit
//     durable/volatile split and scripted fault points: fsync errors,
//     short writes, torn final writes, silent bit flips, and "crash
//     after op N" power-loss simulation that discards everything not
//     yet fsynced.
//
// The interface is the small set the server actually needs, not a
// general VFS: creating and appending, whole-file reads, atomic
// create+rename, and the two sync primitives.
package vfs

import (
	"io"
	"os"
	"path/filepath"
)

// File is the handle type returned by an FS. It is the subset of
// *os.File the journal and snapshot paths use.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FS is the file-system surface of the durability paths. Paths are
// interpreted by the implementation; the OS implementation passes them
// to the real file system verbatim.
type FS interface {
	// Create creates (or truncates) a file for writing.
	Create(name string) (File, error)
	// OpenAppend opens a file for appending, creating it if absent —
	// the journal's open mode.
	OpenAppend(name string) (File, error)
	// ReadFile returns the whole content of a file.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname. Durability of
	// the name change itself requires a SyncDir of the parent.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// SyncDir fsyncs a directory, making renames and creates in it
	// durable. dir may be "" or "." for the current directory.
	SyncDir(dir string) error
}

// OS is the real file system.
type OS struct{}

func (OS) Create(name string) (File, error) { return os.Create(name) }

func (OS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (OS) Remove(name string) error             { return os.Remove(name) }

func (OS) SyncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// DirOf returns the directory containing name, for SyncDir calls after
// an atomic rename into that directory.
func DirOf(name string) string { return filepath.Dir(name) }
