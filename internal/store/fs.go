package store

import (
	"io"
	"io/fs"
	"os"
)

// FS is the slice of filesystem behavior the store depends on. The default
// implementation (OSFS) forwards straight to the os package; fault-injection
// harnesses (internal/chaos) substitute an implementation that can tear
// writes, fail fsyncs, or crash-stop at a chosen operation. The interface is
// deliberately minimal — exactly the calls the WAL and snapshot machinery
// make, nothing speculative.
type FS interface {
	// MkdirAll creates a directory tree like os.MkdirAll.
	MkdirAll(path string, perm fs.FileMode) error
	// OpenFile opens a file like os.OpenFile.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// ReadFile reads a whole file like os.ReadFile. Absent files must
	// return an error satisfying os.IsNotExist.
	ReadFile(name string) ([]byte, error)
	// ReadFileFrom reads a file's contents starting at byte offset off.
	// Reading at or past the end returns an empty slice and no error; an
	// absent file returns an error satisfying os.IsNotExist. The WAL
	// tail-follower uses this so each replication pull reads only the
	// suffix it has not shipped yet instead of rereading the whole log.
	ReadFileFrom(name string, off int64) ([]byte, error)
	// ReadDir lists a directory like os.ReadDir. An absent directory must
	// return an error satisfying os.IsNotExist.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Rename atomically renames like os.Rename.
	Rename(oldpath, newpath string) error
	// Remove deletes one file like os.Remove.
	Remove(name string) error
	// SyncDir fsyncs a directory so a just-renamed file survives a crash.
	SyncDir(dir string) error
}

// File is the store's view of an open file: sequential appends plus the
// truncate/seek pair recovery and rollback need.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// osFS is the real filesystem.
type osFS struct{}

var theOSFS FS = osFS{}

// OSFS returns the real-filesystem implementation of FS. It is stateless;
// the same value is returned every call.
func OSFS() FS { return theOSFS }

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		// Return a typed nil-free interface value only on success so
		// `if f != nil` stays meaningful for callers.
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) ReadFileFrom(name string, off int64) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}

func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
