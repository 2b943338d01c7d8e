// Package vfs is the minimal filesystem seam the durability layer writes
// through. The journal (internal/service) and every other crash-safety
// artifact (the cluster standby's shipped journal, the journal-handoff
// sidecar) perform their file I/O against the FS interface instead of the os
// package, so a test harness can stand between the service and the disk and
// inject the failures real disks produce — short writes, fsync errors,
// ENOSPC — without patching the code under test. internal/nemesis.FaultFS is
// that harness; OS is the production implementation, and ReplaceFile is the
// one temp-file-then-rename rewrite all of them share.
//
// The interface is deliberately tiny: exactly the operations the journal's
// crash-safety story uses (append, fsync, atomic temp-file-then-rename
// replacement, sidecar append, cleanup sweep). Growing it means growing the failure surface every FaultFS schedule must cover, so
// additions should be resisted until a caller genuinely needs them.
package vfs

import (
	"fmt"
	"io"
	"os"
)

// FS is the filesystem surface durable state is written through.
type FS interface {
	// ReadFile reads the whole named file (os.ReadFile semantics: a missing
	// file returns an error for which os.IsNotExist holds).
	ReadFile(name string) ([]byte, error)
	// OpenFile opens name with os.OpenFile flag/perm semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath (the commit point of
	// every temp-file-then-rename rewrite).
	Rename(oldpath, newpath string) error
	// Remove deletes name; removing a non-existent file is an error the
	// caller may ignore (cleanup sweeps do).
	Remove(name string) error
}

// File is one open file. The durability-relevant failure points — Write,
// Sync — are exactly where a fault-injecting implementation perturbs.
type File interface {
	io.Writer
	io.Closer
	// Sync is the fsync barrier: after a successful Sync every previously
	// written byte is durable.
	Sync() error
	// Seek positions the write cursor (reopen-for-append).
	Seek(offset int64, whence int) (int64, error)
}

// OS is the production FS: a pass-through to the os package.
type OS struct{}

func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) Remove(name string) error { return os.Remove(name) }

// ReplaceFile atomically and durably replaces path with data: the bytes go to
// tmp in one Write, are fsynced, and only then renamed over path, so a crash
// at any point leaves either the old file or the complete new one. On failure
// tmp is removed (best effort) and path is untouched.
func ReplaceFile(fsys FS, tmp, path string, data []byte) error {
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("replace %s: %w", path, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("replace %s: %w", path, err)
	}
	return nil
}
