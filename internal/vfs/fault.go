package vfs

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"sync"
)

// errCrash is returned by every operation on a Fault file system after a
// scripted crash point fires: the simulated machine has lost power and
// nothing more can happen until Recover.
var errCrash = errors.New("vfs: simulated power failure")

// FaultKind enumerates the injectable failure modes.
type FaultKind int

const (
	// FaultCrash completes the op it fires on, then fails every later
	// operation with errCrash. Recover() then discards all volatile
	// (unsynced) state, simulating power loss after op N.
	FaultCrash FaultKind = iota + 1
	// FaultSyncErr makes a Sync return an error; nothing becomes durable.
	FaultSyncErr
	// FaultTruncErr makes a Truncate return an error, leaving the file
	// unchanged.
	FaultTruncErr
	// faultWriteErr makes a Write fail having written nothing.
	faultWriteErr
	// faultShortWrite makes a Write persist only Keep bytes (default:
	// half) of the buffer before returning an error — a torn append the
	// writer observes and can clean up.
	faultShortWrite
	// FaultTornWrite persists Keep bytes (default: half) of the buffer,
	// forces everything written so far durable (the tear reached the
	// platter), and crashes — a torn append only recovery ever sees.
	FaultTornWrite
	// FaultBitFlip silently flips one bit in the middle of the written
	// buffer; the Write succeeds, so the corruption is only detectable
	// by checksum at recovery.
	FaultBitFlip
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultSyncErr:
		return "sync-error"
	case FaultTruncErr:
		return "truncate-error"
	case faultWriteErr:
		return "write-error"
	case faultShortWrite:
		return "short-write"
	case FaultTornWrite:
		return "torn-write"
	case FaultBitFlip:
		return "bit-flip"
	}
	return "?"
}

// FaultPoint schedules one fault. Mutating operations (Create,
// OpenAppend, Write, Sync, Truncate, Rename, Remove, SyncDir) increment
// the op counter; a point fires when the counter reaches Op and the
// current operation is one its Kind applies to. Op == 0 means "every
// applicable operation" (used to make a disk that always fails syncs,
// say); points with Op > 0 fire at most once.
type FaultPoint struct {
	Op    int
	Kind  FaultKind
	Keep  int // bytes kept by short/torn writes; 0 = half the buffer
	fired bool
}

// memFile is one file's state: the volatile content every reader and
// writer sees, and the durable content a crash reverts to.
type memFile struct {
	data    []byte
	durable []byte
}

// Fault is the deterministic fault-injecting file system: memory-backed,
// with an explicit durable/volatile split per file and per directory
// entry. Sync makes a file's content (and its current name) durable;
// SyncDir makes a directory's name set durable — so an unsynced rename
// is undone by a crash, exactly the rename-durability trap on a real
// disk. The zero script injects nothing, which makes Fault double as a
// plain in-memory FS for counting runs.
type Fault struct {
	mu      sync.Mutex
	files   map[string]*memFile // volatile namespace
	durable map[string]*memFile // durable namespace
	script  []FaultPoint
	ops     int
	crashed bool
}

// NewFault returns an empty fault file system with no scripted faults.
func NewFault() *Fault {
	return &Fault{files: make(map[string]*memFile), durable: make(map[string]*memFile)}
}

// SetScript replaces the fault script. Call between runs, not while
// operations are in flight.
func (fs *Fault) SetScript(points ...FaultPoint) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.script = make([]FaultPoint, len(points))
	copy(fs.script, points)
}

// OpCount reports how many mutating operations have run — a fault-free
// counting pass over a workload yields the sweep bound for "crash at
// every op N".
func (fs *Fault) OpCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// Crashed reports whether a crash point has fired.
func (fs *Fault) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// Recover applies the power loss: every file reverts to its durable
// content, unsynced directory entries (creates, renames, removes)
// revert, and the file system accepts operations again — the state a
// restarted process finds on disk.
func (fs *Fault) Recover() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files = make(map[string]*memFile, len(fs.durable))
	for name, f := range fs.durable {
		f.data = append([]byte(nil), f.durable...)
		fs.files[name] = f
	}
	fs.crashed = false
}

// WriteFile installs a file whose content is immediately durable — for
// seeding pre-existing journals in tests.
func (fs *Fault) WriteFile(name string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &memFile{data: append([]byte(nil), data...), durable: append([]byte(nil), data...)}
	fs.files[name] = f
	fs.durable[name] = f
}

// step advances the op counter and returns the fault point (if any)
// firing on this operation. Callers hold fs.mu.
func (fs *Fault) step(applicable ...FaultKind) *FaultPoint {
	fs.ops++
	for i := range fs.script {
		p := &fs.script[i]
		if p.fired || (p.Op != 0 && p.Op != fs.ops) {
			continue
		}
		for _, k := range applicable {
			if p.Kind == k {
				if p.Op != 0 {
					p.fired = true
				}
				return p
			}
		}
		// A crash point fires on whatever operation op N happens to be.
		if p.Kind == FaultCrash && p.Op == fs.ops {
			p.fired = true
			return p
		}
	}
	return nil
}

func keepBytes(p *FaultPoint, n int) int {
	k := p.Keep
	if k <= 0 {
		k = n / 2
	}
	if k > n {
		k = n
	}
	return k
}

func (fs *Fault) checkCrashed() error {
	if fs.crashed {
		return errCrash
	}
	return nil
}

// faultFile is a handle into a Fault file system.
type faultFile struct {
	fs     *Fault
	f      *memFile
	name   string
	closed bool
}

func (fs *Fault) lookup(name string) (*memFile, bool) {
	f, ok := fs.files[name]
	return f, ok
}

func (fs *Fault) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkCrashed(); err != nil {
		return nil, err
	}
	if p := fs.step(); p != nil && p.Kind == FaultCrash {
		fs.crashed = true
	}
	f, ok := fs.lookup(name)
	if !ok {
		f = &memFile{}
		fs.files[name] = f
	} else {
		f.data = nil // O_TRUNC: the durable content survives until sync
	}
	return &faultFile{fs: fs, f: f, name: name}, nil
}

func (fs *Fault) OpenAppend(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkCrashed(); err != nil {
		return nil, err
	}
	if p := fs.step(); p != nil && p.Kind == FaultCrash {
		fs.crashed = true
	}
	f, ok := fs.lookup(name)
	if !ok {
		f = &memFile{}
		fs.files[name] = f
	}
	return &faultFile{fs: fs, f: f, name: name}, nil
}

func (fs *Fault) ReadFile(name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkCrashed(); err != nil {
		return nil, err
	}
	f, ok := fs.lookup(name)
	if !ok {
		return nil, &notExistError{name}
	}
	return append([]byte(nil), f.data...), nil
}

func (fs *Fault) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkCrashed(); err != nil {
		return err
	}
	if p := fs.step(); p != nil && p.Kind == FaultCrash {
		defer func() { fs.crashed = true }()
	}
	f, ok := fs.lookup(oldname)
	if !ok {
		return &notExistError{oldname}
	}
	fs.files[newname] = f
	delete(fs.files, oldname)
	return nil
}

func (fs *Fault) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkCrashed(); err != nil {
		return err
	}
	if p := fs.step(); p != nil && p.Kind == FaultCrash {
		defer func() { fs.crashed = true }()
	}
	if _, ok := fs.lookup(name); !ok {
		return &notExistError{name}
	}
	delete(fs.files, name)
	return nil
}

// SyncDir makes the directory's current name set durable: entries
// created, renamed or removed in dir since the last SyncDir survive a
// crash afterwards. File contents stay only as durable as their own
// Sync calls made them.
func (fs *Fault) SyncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkCrashed(); err != nil {
		return err
	}
	if p := fs.step(FaultSyncErr); p != nil {
		switch p.Kind {
		case FaultSyncErr:
			return fmt.Errorf("vfs: injected syncdir error on %q", dir)
		case FaultCrash:
			defer func() { fs.crashed = true }()
		}
	}
	d := normDir(dir)
	for name := range fs.durable {
		if DirOf(name) == d {
			if _, ok := fs.files[name]; !ok {
				delete(fs.durable, name)
			}
		}
	}
	for name, f := range fs.files {
		if DirOf(name) == d {
			fs.durable[name] = f
		}
	}
	return nil
}

func normDir(dir string) string {
	if dir == "" {
		return "."
	}
	return dir
}

func (h *faultFile) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.checkCrashed(); err != nil {
		return 0, err
	}
	if h.closed {
		return 0, errors.New("vfs: write on closed file")
	}
	if fp := h.fs.step(faultWriteErr, faultShortWrite, FaultTornWrite, FaultBitFlip); fp != nil {
		switch fp.Kind {
		case faultWriteErr:
			return 0, errors.New("vfs: injected write error")
		case faultShortWrite:
			k := keepBytes(fp, len(p))
			h.f.data = append(h.f.data, p[:k]...)
			return k, errors.New("vfs: injected short write")
		case FaultTornWrite:
			// The tear reaches the platter: prefix appended AND the whole
			// file content to that point forced durable, then power loss.
			k := keepBytes(fp, len(p))
			h.f.data = append(h.f.data, p[:k]...)
			h.f.durable = append([]byte(nil), h.f.data...)
			h.fs.durable[h.name] = h.f
			h.fs.crashed = true
			return k, errCrash
		case FaultBitFlip:
			q := append([]byte(nil), p...)
			q[len(q)/2] ^= 0x01
			h.f.data = append(h.f.data, q...)
			return len(p), nil
		case FaultCrash:
			h.f.data = append(h.f.data, p...)
			h.fs.crashed = true
			return len(p), nil
		}
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

// Sync makes the file's content durable, and durably links the file's
// current name(s) — the practical fsync contract on mainstream Linux
// file systems, where fsync of a new file also persists its directory
// entry. What fsync does NOT make durable is a later rename; that takes
// SyncDir.
func (h *faultFile) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.checkCrashed(); err != nil {
		return err
	}
	if fp := h.fs.step(FaultSyncErr); fp != nil {
		switch fp.Kind {
		case FaultSyncErr:
			return errors.New("vfs: injected fsync error")
		case FaultCrash:
			defer func() { h.fs.crashed = true }()
		}
	}
	h.f.durable = append([]byte(nil), h.f.data...)
	for name, f := range h.fs.files {
		if f == h.f {
			h.fs.durable[name] = f
		}
	}
	return nil
}

func (h *faultFile) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.checkCrashed(); err != nil {
		return err
	}
	if fp := h.fs.step(FaultTruncErr); fp != nil {
		switch fp.Kind {
		case FaultTruncErr:
			return errors.New("vfs: injected truncate error")
		case FaultCrash:
			defer func() { h.fs.crashed = true }()
		}
	}
	if int(size) < len(h.f.data) {
		h.f.data = h.f.data[:size]
	}
	for int(size) > len(h.f.data) {
		h.f.data = append(h.f.data, 0)
	}
	return nil
}

func (h *faultFile) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}

// notExistError unwraps to fs.ErrNotExist so the server's missing-file
// probes (errors.Is(err, fs.ErrNotExist)) treat the in-memory FS and the
// real one identically.
type notExistError struct{ name string }

func (e *notExistError) Error() string { return "vfs: file does not exist: " + e.name }
func (e *notExistError) Unwrap() error { return iofs.ErrNotExist }
