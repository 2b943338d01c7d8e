package nemesis

import (
	"fmt"
	"os"
	"sync"
	"syscall"

	"repro/internal/diag"
	"repro/internal/vfs"
)

// FaultFSConfig sets the per-operation fault rates a FaultFS draws against
// the storage stream while armed.
type FaultFSConfig struct {
	// ShortWriteRate: a Write lands only a prefix of the buffer and returns
	// an error (the on-disk tail is torn mid-record).
	ShortWriteRate float64
	// WriteErrRate: a Write fails with ENOSPC before landing any byte.
	WriteErrRate float64
	// SyncErrRate: a Sync fails; previously written bytes are in an unknown
	// durability state, exactly as after a real fsync failure.
	SyncErrRate float64
}

// FaultFS is a vfs.FS that injects storage faults drawn deterministically
// from its engine's storage stream. Faults fire only while the FS is armed,
// so a harness can scope disk trouble to chosen incarnations of the system
// under test; when disarmed (the default) every operation passes straight
// through to the inner FS and consumes no randomness, keeping the storage
// stream's draw sequence a pure function of the armed operations.
type FaultFS struct {
	inner vfs.FS
	eng   *Engine
	cfg   FaultFSConfig

	mu    sync.Mutex
	armed bool
}

// NewFaultFS wraps inner with fault injection driven by eng's storage stream.
func NewFaultFS(eng *Engine, inner vfs.FS, cfg FaultFSConfig) *FaultFS {
	return &FaultFS{inner: inner, eng: eng, cfg: cfg}
}

// Arm enables (true) or disables (false) fault injection.
func (f *FaultFS) Arm(on bool) {
	f.mu.Lock()
	f.armed = on
	f.mu.Unlock()
}

// draw returns whether a fault with the given rate fires now, and for short
// writes the fraction of the buffer to keep. Draws are serialized so that a
// single-threaded caller (the journal holds its own lock around file I/O)
// sees one deterministic sequence.
func (f *FaultFS) draw(rate float64) (bool, float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.armed || rate <= 0 {
		return false, 0
	}
	r := f.eng.Stream(ClassStorage)
	if r.Float() >= rate {
		return false, 0
	}
	return true, r.Float()
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f, name: name}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error { return f.inner.Rename(oldpath, newpath) }

func (f *FaultFS) Remove(name string) error { return f.inner.Remove(name) }

type faultFile struct {
	f    vfs.File
	fs   *FaultFS
	name string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if fire, _ := ff.fs.draw(ff.fs.cfg.WriteErrRate); fire {
		ff.fs.eng.Observe(ClassStorage, "enospc", ff.name, "")
		return 0, fmt.Errorf("%w: write %s: %w", diag.ErrInjected, ff.name, syscall.ENOSPC)
	}
	if fire, frac := ff.fs.draw(ff.fs.cfg.ShortWriteRate); fire && len(p) > 1 {
		keep := int(frac * float64(len(p)))
		if keep >= len(p) {
			keep = len(p) - 1
		}
		n, err := ff.f.Write(p[:keep])
		if err != nil {
			return n, err
		}
		ff.fs.eng.Observe(ClassStorage, "short-write", ff.name, "")
		return n, fmt.Errorf("%w: short write %s: %d of %d bytes", diag.ErrInjected, ff.name, n, len(p))
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	if fire, _ := ff.fs.draw(ff.fs.cfg.SyncErrRate); fire {
		ff.fs.eng.Observe(ClassStorage, "fsync-error", ff.name, "")
		return fmt.Errorf("%w: fsync %s: input/output error", diag.ErrInjected, ff.name)
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) { return ff.f.Seek(offset, whence) }
