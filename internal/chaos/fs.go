package chaos

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"

	"repro/internal/store"
)

// Filesystem fault kinds. TornWrite and ShortWrite match file writes,
// SyncFail matches fsyncs, CrashStop matches any operation.
const (
	// TornWrite writes a strict prefix of the buffer and then crash-stops
	// the filesystem — the classic power-cut mid-append. Because the store
	// writes one whole frame per Write call, the prefix is always an
	// incomplete frame, which recovery must truncate.
	TornWrite = "torn-write"
	// ShortWrite writes a strict prefix and returns an error, without
	// crashing: an I/O error the process survives and must roll back.
	ShortWrite = "short-write"
	// SyncFail makes one fsync return an error.
	SyncFail = "sync-fail"
	// CrashStop fails the matched operation and every operation after it
	// with ErrCrashed until Revive.
	CrashStop = "crash-stop"
)

// Injected-fault errors. ErrCrashed additionally poisons the filesystem
// until Revive.
var (
	ErrCrashed       = errors.New("chaos: simulated crash-stop")
	ErrInjectedWrite = errors.New("chaos: injected short write")
	ErrInjectedSync  = errors.New("chaos: injected fsync failure")
)

// FSFault is one armed filesystem fault.
type FSFault struct {
	// Kind is TornWrite, ShortWrite, SyncFail, or CrashStop.
	Kind string
	// After skips this many matching operations before firing (0 fires on
	// the next match).
	After int
}

// crashes reports whether the fault crash-stops the filesystem when it
// fires.
func (f FSFault) crashes() bool { return f.Kind == TornWrite || f.Kind == CrashStop }

func (f FSFault) matches(op string) bool {
	switch f.Kind {
	case TornWrite, ShortWrite:
		return op == fsOpWrite
	case SyncFail:
		return op == fsOpSync
	case CrashStop:
		return true
	}
	return false
}

const (
	fsOpWrite = "write"
	fsOpSync  = "sync"
	fsOpOther = "other"
)

// FS is a store.FS that forwards to an underlying filesystem until an
// armed fault matches. Faults are one-shot and fire in arming order, except
// that a due crash (TornWrite, CrashStop) outranks an earlier-armed fault
// due on the same operation, which then stays due. All state is keyed to
// the operation counter, so a fixed operation sequence yields a fixed fault
// trace.
type FS struct {
	under store.FS

	mu      sync.Mutex
	ops     int64
	armed   []*armedFS
	crashed bool
	trace   []Event
}

type armedFS struct {
	fault     FSFault
	remaining int
}

// NewFS wraps under (nil: the real filesystem) with no faults armed.
func NewFS(under store.FS) *FS {
	if under == nil {
		under = store.OSFS()
	}
	return &FS{under: under}
}

// Arm schedules one fault. Multiple armed faults fire independently, each
// consuming its own matching-operation countdown.
func (c *FS) Arm(f FSFault) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = append(c.armed, &armedFS{fault: f, remaining: f.After})
}

// Crashed reports whether a TornWrite or CrashStop fault has fired.
func (c *FS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// Revive clears the crash-stop state and disarms any pending faults — the
// moral equivalent of restarting the process over the same disk.
func (c *FS) Revive() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed = false
	c.armed = nil
}

// Ops returns the operation counter.
func (c *FS) Ops() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Trace returns the faults fired so far, in order.
func (c *FS) Trace() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.trace...)
}

// next counts one operation and decides its fate: "" for pass-through, or
// the fault kind to inject. A crashed filesystem fails everything.
func (c *FS) next(op, path string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	if c.crashed {
		return "", ErrCrashed
	}
	// An operation counts down the matching faults up to the first one
	// due; past it, only a due crash can still take the operation.
	due := -1
	for i, a := range c.armed {
		if !a.fault.matches(op) {
			continue
		}
		if due >= 0 {
			if a.remaining == 0 && a.fault.crashes() {
				due = i
				break
			}
			continue
		}
		if a.remaining > 0 {
			a.remaining--
			continue
		}
		due = i
		if a.fault.crashes() {
			break
		}
	}
	if due < 0 {
		return "", nil
	}
	f := c.armed[due].fault
	c.armed = append(c.armed[:due], c.armed[due+1:]...)
	c.trace = append(c.trace, Event{Domain: "fs", Op: c.ops, Kind: f.Kind, Detail: filepath.Base(path)})
	c.crashed = f.crashes()
	return f.Kind, nil
}

// FS interface. Non-file operations only ever take the pass-through or
// crash-stop path.

func (c *FS) MkdirAll(path string, perm fs.FileMode) error {
	if _, err := c.next(fsOpOther, path); err != nil {
		return err
	}
	return c.under.MkdirAll(path, perm)
}

func (c *FS) OpenFile(name string, flag int, perm fs.FileMode) (store.File, error) {
	kind, err := c.next(fsOpOther, name)
	if err != nil {
		return nil, err
	}
	if kind == CrashStop {
		return nil, ErrCrashed
	}
	f, err := c.under.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{f: f, fs: c, path: name}, nil
}

func (c *FS) ReadFile(name string) ([]byte, error) {
	kind, err := c.next(fsOpOther, name)
	if err != nil {
		return nil, err
	}
	if kind == CrashStop {
		return nil, ErrCrashed
	}
	return c.under.ReadFile(name)
}

func (c *FS) ReadFileFrom(name string, off int64) ([]byte, error) {
	kind, err := c.next(fsOpOther, name)
	if err != nil {
		return nil, err
	}
	if kind == CrashStop {
		return nil, ErrCrashed
	}
	return c.under.ReadFileFrom(name, off)
}

func (c *FS) ReadDir(name string) ([]fs.DirEntry, error) {
	kind, err := c.next(fsOpOther, name)
	if err != nil {
		return nil, err
	}
	if kind == CrashStop {
		return nil, ErrCrashed
	}
	return c.under.ReadDir(name)
}

func (c *FS) Rename(oldpath, newpath string) error {
	kind, err := c.next(fsOpOther, newpath)
	if err != nil {
		return err
	}
	if kind == CrashStop {
		return ErrCrashed
	}
	return c.under.Rename(oldpath, newpath)
}

func (c *FS) Remove(name string) error {
	kind, err := c.next(fsOpOther, name)
	if err != nil {
		return err
	}
	if kind == CrashStop {
		return ErrCrashed
	}
	return c.under.Remove(name)
}

func (c *FS) SyncDir(dir string) error {
	kind, err := c.next(fsOpSync, dir)
	if err != nil {
		return err
	}
	switch kind {
	case SyncFail:
		return ErrInjectedSync
	case CrashStop:
		return ErrCrashed
	}
	return c.under.SyncDir(dir)
}

// file is the per-file half of the failpoint: writes and fsyncs route
// their fate decisions through the parent FS's single operation counter.
type file struct {
	f    store.File
	fs   *FS
	path string
}

func (cf *file) Write(p []byte) (int, error) {
	kind, err := cf.fs.next(fsOpWrite, cf.path)
	if err != nil {
		return 0, err
	}
	switch kind {
	case TornWrite:
		// Half the frame reaches the platter, then the power goes.
		n, _ := cf.f.Write(p[:len(p)/2])
		_ = cf.f.Sync() // the torn prefix must actually be on disk for recovery to see
		return n, ErrCrashed
	case ShortWrite:
		n, _ := cf.f.Write(p[:len(p)/2])
		return n, ErrInjectedWrite
	case CrashStop:
		return 0, ErrCrashed
	}
	return cf.f.Write(p)
}

func (cf *file) Sync() error {
	kind, err := cf.fs.next(fsOpSync, cf.path)
	if err != nil {
		return err
	}
	switch kind {
	case SyncFail:
		return ErrInjectedSync
	case CrashStop:
		return ErrCrashed
	}
	return cf.f.Sync()
}

func (cf *file) Truncate(size int64) error {
	kind, err := cf.fs.next(fsOpOther, cf.path)
	if err != nil {
		return err
	}
	if kind == CrashStop {
		return ErrCrashed
	}
	return cf.f.Truncate(size)
}

func (cf *file) Seek(offset int64, whence int) (int64, error) {
	kind, err := cf.fs.next(fsOpOther, cf.path)
	if err != nil {
		return 0, err
	}
	if kind == CrashStop {
		return 0, ErrCrashed
	}
	return cf.f.Seek(offset, whence)
}

// Close always reaches the real file so a crash-stopped run does not leak
// descriptors; a crashed "process" keeps the bytes it already lost.
func (cf *file) Close() error {
	return cf.f.Close()
}

var _ store.FS = (*FS)(nil)

// String implements fmt.Stringer for debugging armed state.
func (c *FS) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("chaos.FS{ops: %d, armed: %d, crashed: %v, fired: %d}",
		c.ops, len(c.armed), c.crashed, len(c.trace))
}
