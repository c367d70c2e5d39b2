package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Linux's CPU-time clocks. A guest kernel that accounts steal time
// leaves out of both the time the hypervisor gives the vCPU to other
// machines.
const (
	clockProcessCPUTimeID = 2 // every thread of this process
	clockThreadCPUTimeID  = 3 // the calling thread
)

// processCPU returns the CPU time all of this process's threads have
// used.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }

// threadCPU returns the CPU time the calling OS thread has used; it
// measures a goroutine only while runtime.LockOSThread holds it there.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTimeID) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno))
	}
	return time.Duration(ts.Nano())
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times on Linux.
const clockTicks = 100

// cpuSeconds returns a process's user plus system CPU time from
// /proc/<pid>/stat ("self" for this process).
func cpuSeconds(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	return (utime + stime) / clockTicks, nil
}

// rssMB returns a process's current resident set size in MB, from the
// second field of /proc/<pid>/statm (in pages).
func rssMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed /proc/%s/statm", pid)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("malformed /proc/%s/statm", pid)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}
