package main

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// The VM's disk repeats even less than its processors: an append + fsync on
// the checkout's filesystem took 150 µs in one hour and 1.3 ms in the next,
// and `durable`, which fsyncs once per job under the journal's lock, went
// from 5.9k jobs/s to 0.4k with it. No bound can hold across that, and no
// change to the repository can move the device. So the journaled service
// writes through modelDisk: every call reaches the real file in the checkout
// except Sync, which is counted and replaced by a fixed piece of processor
// work (two of calib.go's loops), about 270 µs on this VM when it is quiet.
// Being host work, it stretches with the host like everything else a run
// times, so the conversion to nominal seconds applies to it too. What the journal decides —
// how many syncs a job costs, what is written, when it compacts — is
// measured; what the device does is reported beside it, unscaled, as
// disk.fsync_us.
const (
	syncALU   = 50_000 // xorshift steps, about 105 µs
	syncLoads = 1_430  // dependent loads, about 165 µs
)

type modelDisk struct {
	vfs.OS
	syncs atomic.Int64
}

func (d *modelDisk) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := d.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &modelFile{File: f, disk: d}, nil
}

type modelFile struct {
	vfs.File
	disk *modelDisk
}

func (f *modelFile) Sync() error {
	f.disk.syncs.Add(1)
	aluChain(syncALU)
	memChase(syncLoads)
	return nil
}

// deviceFsync times n appends of a journal-record-sized block, each followed
// by a real fsync, on a file in dir: what the checkout's device does today.
func deviceFsync(dir string, n int) (us []float64, err error) {
	f, err := os.OpenFile(filepath.Join(dir, "fsync-probe"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	for i := 0; i < n; i++ {
		if _, err := f.Write(block); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return nil, err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return us, nil
}
