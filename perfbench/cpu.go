package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"nok"
)

// On a shared host the hypervisor withholds CPU time from the virtual
// machine ("steal"), in bursts and for minutes at a time, and a wall clock
// counts that time as if the program had spent it. A CPU clock does not:
// the kernel charges a thread only for the time it ran. The benchmark's
// gated timings are therefore CPU times: of the whole process over a
// request or a set-up (nothing else runs then), and of the committing
// thread over a group commit. The process runs Go code on one P (see
// main), so the process clock does not also count the runtime spinning on
// a second CPU for work to steal. Wall times are reported beside them.

// Clock IDs of clock_gettime(2).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: all threads of the process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU returns the calling thread's CPU time; the caller must hold
// runtime.LockOSThread for differences to mean anything.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// coreCommit is one InsertBatch call: its wall and CPU time and the store
// size it started from.
type coreCommit struct {
	dur, cpu time.Duration
	nodes    uint64
}

// meteredStore is the server.Backend and ingest target of every run: the
// store itself, with each group commit timed on the committer's own
// thread. A commit runs on one goroutine, so its thread's CPU clock holds
// its whole cost except background garbage collection, and the queries
// the scheduler interleaves with it do not count.
type meteredStore struct {
	*nok.Store
	mu      sync.Mutex
	commits []coreCommit
}

func (m *meteredStore) InsertBatch(parentID string, frags [][]byte) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	nodes := m.Store.NodeCount()
	start, c0 := time.Now(), threadCPU()
	err := m.Store.InsertBatch(parentID, frags)
	c := coreCommit{dur: time.Since(start), cpu: threadCPU() - c0, nodes: nodes}
	if err == nil {
		m.mu.Lock()
		m.commits = append(m.commits, c)
		m.mu.Unlock()
	}
	return err
}

// log returns the commits recorded so far.
func (m *meteredStore) log() []coreCommit {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]coreCommit(nil), m.commits...)
}
