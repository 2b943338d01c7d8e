package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask: room for 1024 processors.
type cpuMask [1024 / 64]uint64

func (m *cpuMask) last() int {
	for i := len(m)*64 - 1; i >= 0; i-- {
		if m[i/64]&(1<<(i%64)) != 0 {
			return i
		}
	}
	return -1
}

// pinToOneCPU restricts every thread of this process, and every process it
// starts from then on, to one of the processors it may run on (the last: the
// first takes most of a VM's interrupts), and the Go scheduler to one running
// goroutine. The returned function lifts both. It is for the workloads that
// have one thing to do at a time: on this VM a thread that moves to the other
// processor, or wakes one there, pays for it out of proportion, and the
// kernel moves them often (sweep ran a quarter faster pinned, and its rounds
// repeated to 3 % where they had spread over 10-20 %).
//
// Go has no call for this, and a mask is per thread, so it walks
// /proc/self/task.
func pinToOneCPU() (restore func(), err error) {
	var allowed cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := allowed.last()
	if cpu < 0 {
		return nil, fmt.Errorf("sched_getaffinity: empty mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setAffinity(&one); err != nil {
		setAffinity(&allowed)
		return nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	return func() {
		runtime.GOMAXPROCS(procs)
		setAffinity(&allowed)
	}, nil
}

// setAffinity gives every thread of the process the mask. A thread started
// meanwhile by one not yet reached has the old mask, so it goes over the
// list until a pass finds no new thread.
func setAffinity(mask *cpuMask) error {
	done := map[int]bool{}
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := false
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || done[tid] {
				continue
			}
			done[tid], fresh = true, true
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has ended since it was listed
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
		if !fresh {
			return nil
		}
	}
}
