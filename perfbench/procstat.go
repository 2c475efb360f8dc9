package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// rssWatcher samples the process's resident set size while the passes run,
// so that each pass's peak can be read on its own. A single peak over the
// whole run would be the highest of several passes whose peaks differ by
// when the garbage collector happened to run; the median of the per-pass
// peaks is steady.
type rssWatcher struct {
	peak atomic.Int64 // bytes, since the last take
	stop chan struct{}
	done sync.WaitGroup
}

// rssEvery is the sampling period: short next to the transients that set a
// pass's peak (collections, the timeline export), long enough that sampling
// costs next to nothing.
const rssEvery = 2 * time.Millisecond

func startRSSWatcher() *rssWatcher {
	w := &rssWatcher{stop: make(chan struct{})}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			w.sample()
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// sample folds the current resident set size into the peak.
func (w *rssWatcher) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return // no procfs: take reports 0 and the caller falls back
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	rss := pages * int64(os.Getpagesize())
	for {
		p := w.peak.Load()
		if rss <= p || w.peak.CompareAndSwap(p, rss) {
			return
		}
	}
}

// take returns the peak in MB since the previous take and starts a new
// interval.
func (w *rssWatcher) take() float64 {
	w.sample()
	return float64(w.peak.Swap(0)) / (1 << 20)
}

func (w *rssWatcher) close() {
	close(w.stop)
	w.done.Wait()
}

// maxRSS returns the process's peak resident set size in MB.
func maxRSS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// cpuTime returns the CPU time every thread of the process has used. Time
// the hypervisor gives to other machines is not counted.
func cpuTime() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPUTime returns the CPU time of the calling OS thread; the caller
// locks its goroutine to the thread.
func threadCPUTime() time.Duration { return cpuClock(clockThreadCPUTime) }

// Linux's CPU-time clocks, which the syscall package does not name. Unlike
// getrusage, which rounds a thread's time to scheduler ticks, they read the
// scheduler's nanosecond account.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// checkCPUClocks reports whether the kernel provides both CPU-time clocks;
// main calls it before anything is timed.
func checkCPUClocks() error {
	for _, id := range []uintptr{clockProcessCPUTime, clockThreadCPUTime} {
		if _, err := readCPUClock(id); err != nil {
			return err
		}
	}
	return nil
}

func readCPUClock(id uintptr) (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(%d): %w", id, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// cpuClock reads a clock that checkCPUClocks has found to work.
func cpuClock(id uintptr) time.Duration {
	d, err := readCPUClock(id)
	if err != nil {
		panic(err)
	}
	return d
}
