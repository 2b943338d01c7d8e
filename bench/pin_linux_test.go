package main

import (
	"runtime"
	"syscall"
	"testing"
	"unsafe"
)

func allowedCPUs(t *testing.T) int {
	t.Helper()
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		t.Fatal(errno)
	}
	n := 0
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			n++
		}
	}
	return n
}

func TestPinToOneCPUAndBack(t *testing.T) {
	runtime.LockOSThread() // the mask read below is this thread's
	defer runtime.UnlockOSThread()
	before, procs := allowedCPUs(t), runtime.GOMAXPROCS(0)
	restore, err := pinToOneCPU()
	if err != nil {
		t.Skip("cannot pin here:", err)
	}
	if n := allowedCPUs(t); n != 1 {
		t.Errorf("pinned: %d processors allowed, want 1", n)
	}
	if n := runtime.GOMAXPROCS(0); n != 1 {
		t.Errorf("pinned: GOMAXPROCS %d, want 1", n)
	}
	restore()
	if n := allowedCPUs(t); n != before {
		t.Errorf("restored: %d processors allowed, want %d", n, before)
	}
	if n := runtime.GOMAXPROCS(0); n != procs {
		t.Errorf("restored: GOMAXPROCS %d, want %d", n, procs)
	}
}
