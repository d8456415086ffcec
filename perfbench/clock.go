package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark reads three clocks besides the wall clock:
//
//   - Read-side CPU time for query_qps: the process's CPU time
//     (CLOCK_PROCESS_CPUTIME_ID) less the open-loop writer's thread, so
//     work a request hands to other goroutines, and the garbage collector's
//     background work, still counts against it. Queries per second on
//     wall time less run-queue wait spread by 0.24-0.26 of their median
//     across ten runs of hot70 on a shared 2-vCPU host: the host's steal
//     advances that clock while the reader runs, and no CPU clock.
//   - Wall time less the thread's run-queue wait (queued) for
//     checkpoint_ms. It keeps I/O, lock waits and waits for other
//     goroutines, and leaves out only the time the thread was runnable
//     with no CPU free: on two vCPUs shared by the reader, the writer and
//     the garbage collector, that wait followed the host's steal and made
//     plain wall-clock checkpoint_ms on ingest_mixed spread by 0.27 across
//     runs. Steal while the thread runs still counts.
//   - Thread CPU time (CLOCK_THREAD_CPUTIME_ID), of the thread that made
//     the call with the calling goroutine locked to it, for query_p50_ms,
//     query_p99_ms, ingest_p50_ms, ingest_p90_ms and setup_s. The host of
//     a virtual machine takes the virtual CPU away for whole slices (steal
//     time) and shares its disk; both advance the wall clock of whatever
//     call is running but not the thread's CPU clock. Measured on a 2-vCPU
//     VM, wall-clock query_p99_ms and ingest_p90_ms spread by
//     0.25-0.6 of their median across runs, and ingest_p50_ms less
//     run-queue wait by 0.26-0.31 (WAL fsync time rose with the host's
//     load); the CPU clock by under 0.1. It leaves out fsync and other
//     I/O, lock waits and work the thread waits for on other goroutines.

const (
	clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTimeID  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// threadCPU returns the calling thread's CPU time.
func threadCPU() time.Duration { return readClock(clockThreadCPUTimeID) }

// processCPU returns the CPU time of every thread of the process.
func processCPU() time.Duration { return readClock(clockProcessCPUTimeID) }

// threadCPUOf returns the CPU time of the process's thread tid, on the
// clock ID pthread_getcpuclockid gives for it (CPUCLOCK_SCHED with
// CPUCLOCK_PERTHREAD_MASK).
func threadCPUOf(tid int) time.Duration { return readClock(uintptr(^int64(tid)<<3 | 6)) }

// readClock reads one clock_gettime clock. It panics if the clock cannot
// be read: no metric on it could be measured.
func readClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", int64(id), errno))
	}
	return time.Duration(ts.Nano())
}

// queued returns how long the calling thread has waited on a run queue
// (runnable, but with no CPU free for it) since it started: the second
// field of /proc/thread-self/schedstat. It panics if the file cannot be
// read.
func queued() time.Duration {
	b, err := os.ReadFile("/proc/thread-self/schedstat")
	if err != nil {
		panic(err)
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		panic(fmt.Sprintf("schedstat: %q", b))
	}
	ns, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		panic(err)
	}
	return time.Duration(ns)
}

// watch times one interval on both clocks.
type watch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() watch { return watch{wall: time.Now(), cpu: threadCPU()} }

// stop returns the interval's CPU and wall time.
func (w watch) stop() (cpu, wall time.Duration) {
	return threadCPU() - w.cpu, time.Since(w.wall)
}
