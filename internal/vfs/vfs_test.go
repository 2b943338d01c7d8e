package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestOSRoundTrip drives the production FS through every operation the
// durability layer uses: create/append, fsync, reopen, seek to the end and
// keep writing, rename over an existing file, remove.
func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fsys := OS{}
	path := filepath.Join(dir, "log")

	if _, err := fsys.ReadFile(path); !os.IsNotExist(err) {
		t.Fatalf("ReadFile of a missing file: err = %v, want IsNotExist", err)
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("first\nsecond\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen for append, as the journal does after a recovery or a compaction.
	if f, err = fsys.OpenFile(path, os.O_RDWR, 0o644); err != nil {
		t.Fatal(err)
	}
	if end, err := f.Seek(0, io.SeekEnd); err != nil || end != int64(len("first\nsecond\n")) {
		t.Fatalf("Seek to end = %d, %v", end, err)
	}
	if _, err := f.Write([]byte("third\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := fsys.ReadFile(path); err != nil || string(got) != "first\nsecond\nthird\n" {
		t.Fatalf("after reopen+append: %q, %v", got, err)
	}

	// Rename replaces an existing target and removes the source name.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte("replacement\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	if got, _ := fsys.ReadFile(path); string(got) != "replacement\n" {
		t.Fatalf("after rename: %q", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("rename left its source behind: %v", err)
	}
	if err := fsys.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(path); err == nil {
		t.Fatal("removing a missing file reported success")
	}
}

// failFS fails the named step of a ReplaceFile and records what was cleaned.
type failFS struct {
	OS
	failAt  string
	removed []string
}

var errStep = errors.New("injected step failure")

func (f *failFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if f.failAt == "open" {
		return nil, errStep
	}
	file, err := f.OS.OpenFile(name, flag, perm)
	return &failFile{File: file, fs: f}, err
}

func (f *failFS) Rename(oldpath, newpath string) error {
	if f.failAt == "rename" {
		return errStep
	}
	return f.OS.Rename(oldpath, newpath)
}

func (f *failFS) Remove(name string) error {
	f.removed = append(f.removed, name)
	return f.OS.Remove(name)
}

type failFile struct {
	File
	fs *failFS
}

func (ff *failFile) Write(p []byte) (int, error) {
	if ff.fs.failAt == "write" {
		return 0, errStep
	}
	return ff.File.Write(p)
}

func (ff *failFile) Sync() error {
	if ff.fs.failAt == "sync" {
		return errStep
	}
	return ff.File.Sync()
}

func (ff *failFile) Close() error {
	err := ff.File.Close()
	if ff.fs.failAt == "close" {
		return errStep
	}
	return err
}

// TestReplaceFile: the replacement is all-or-nothing. On success the target
// holds exactly the new bytes and the temp name is gone; a failure at any
// step leaves the old target untouched, removes the temp file and surfaces
// the cause.
func TestReplaceFile(t *testing.T) {
	for _, failAt := range []string{"", "open", "write", "sync", "close", "rename"} {
		dir := t.TempDir()
		path, tmp := filepath.Join(dir, "data"), filepath.Join(dir, "data.tmp")
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		fsys := &failFS{failAt: failAt}
		err := ReplaceFile(fsys, tmp, path, []byte("new image"))
		got, _ := os.ReadFile(path)
		if failAt == "" {
			if err != nil || string(got) != "new image" {
				t.Fatalf("clean replace: %q, %v", got, err)
			}
		} else {
			if !errors.Is(err, errStep) {
				t.Fatalf("fail at %s: err = %v, want the injected cause", failAt, err)
			}
			if string(got) != "old" {
				t.Fatalf("fail at %s: target now %q, want it untouched", failAt, got)
			}
			if failAt != "open" && (len(fsys.removed) != 1 || fsys.removed[0] != tmp) {
				t.Fatalf("fail at %s: cleanup removed %v, want the temp file", failAt, fsys.removed)
			}
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatalf("fail at %q: temp file left behind (%v)", failAt, err)
		}
	}
}
