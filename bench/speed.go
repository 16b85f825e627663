//go:build linux

package main

import (
	"math/bits"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The boxes this benchmark runs on are small VMs on shared hosts whose
// effective CPU speed halves and recovers for anything from a
// fraction of a second to a minute at a time: identical back-to-back
// runs differ by 1.5–2× in every CPU-bound figure, and no statistic
// over the windows of one ten-second run removes that, because a
// whole run can sit in the slow state. The speedometer measures the
// disturbance itself: while anything is being timed, one goroutine
// spins a fixed, cache-resident XOR+popcount loop every 2 ms and
// records how long it took on its thread's CPU clock. A timed
// window's speed is referenceBurst over the mean burst time inside it,
// and CPU-bound timings are reported as the reference machine would
// have shown them: a time is multiplied by its window's speed, a rate
// divided by it. The reference is a constant, not the run's own best,
// so a run that sits in the slow state from end to end is scaled like
// any other. The load the bursts add, about 5 % of a two-CPU box, is
// the same in every run.

// burstEvery is the spacing of speedometer bursts.
const burstEvery = 2 * time.Millisecond

// referenceBurst is what one burst takes on the reference machine —
// the box this benchmark was defined on, undisturbed. It only fixes
// the unit the scaled timings are in: two runs, or two commits, are
// compared on the same scale whatever state the machine was in.
const referenceBurst = 150 * time.Microsecond

// threadCPU reads the calling thread's CPU clock
// (CLOCK_THREAD_CPUTIME_ID), which has nanosecond resolution where
// getrusage only advances with the scheduler tick. Timing a burst on
// this clock leaves out the time the burst's thread sat preempted by
// the benchmark's own load, and keeps the slowdown of the CPU itself.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// speedometer samples the machine's effective speed.
type speedometer struct {
	stop chan struct{}
	done chan struct{}

	mu sync.Mutex
	// speeds[i] is referenceBurst over the time of burst i: the speed
	// the machine ran at during it, 1.0 being the reference machine.
	speeds []float64
	// sink keeps the burst loop's result alive.
	sink int
}

func startSpeedometer() *speedometer {
	s := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// The burst should be one uninterrupted stretch on one CPU.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		buf := make([]uint64, 4096)
		for i := range buf {
			buf[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		tick := time.NewTicker(burstEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			t0 := threadCPU()
			sum := 0
			for rep := 0; rep < 60; rep++ {
				for _, w := range buf {
					sum += bits.OnesCount64(w ^ 0x5555555555555555)
				}
			}
			took := threadCPU() - t0
			if took <= 0 {
				continue // the thread clock is unavailable: windows are reported as measured
			}
			s.mu.Lock()
			s.speeds = append(s.speeds, float64(referenceBurst)/float64(took))
			s.sink += sum
			s.mu.Unlock()
		}
	}()
	return s
}

// close stops the sampler and waits for it.
func (s *speedometer) close() {
	close(s.stop)
	<-s.done
}

// mark names the present moment; pass it to since.
func (s *speedometer) mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.speeds)
}

// since returns the machine's mean speed since mark; an interval
// without a burst reads 1, so its timing is reported as measured.
func (s *speedometer) since(mark int) float64 {
	return s.between(mark, s.mark())
}

// between returns the machine's mean speed between two marks. Bursts
// are evenly spaced in time, so their plain mean is the time average:
// work done over a stretch, and so a fixed piece of work's duration,
// goes with it.
func (s *speedometer) between(from, to int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from >= to {
		return 1
	}
	return mean(s.speeds[from:to])
}

// windows collects per-window raw values of one metric together with
// the machine's speed during each window.
type windows struct {
	raw, speed []float64
}

func (w *windows) add(raw, speed float64) {
	w.raw = append(w.raw, raw)
	w.speed = append(w.speed, speed)
}

// keep returns the windows whose index passes the filter.
func (w windows) keep(pass func(i int) bool) windows {
	var out windows
	for i := range w.raw {
		if pass(i) {
			out.add(w.raw[i], w.speed[i])
		}
	}
	return out
}

// atReferenceSpeed reports the median over windows of the values the
// reference machine would have shown: a time multiplied by its
// window's speed, a rate divided by it.
func atReferenceSpeed(w windows, isTime bool) measure {
	vals := make([]float64, len(w.raw))
	for i, raw := range w.raw {
		if isTime {
			vals[i] = raw * w.speed[i]
		} else {
			vals[i] = raw / w.speed[i]
		}
	}
	return measure{Value: median(vals), Windows: vals, IQR: iqr(vals), Raw: w.raw, Speed: w.speed}
}
