package main

import (
	"sync"
	"time"
)

// A shared host's speed drifts, by up to half, over seconds to minutes
// while the process keeps its full CPU time: neighbours on the same
// cores slow every instruction, not the share of time the process gets.
// Wall-clock figures from runs minutes apart then differ by more than
// any change a benchmark should resolve. So the timed loop measures the host's speed
// next to the program, with a fixed kernel that shares no code and no
// data with it, and reports every request time as it would read on a
// host of reference speed: wall time × refCalibrationS / (the
// calibration time measured around it). The raw wall-clock figures stay
// in the record. The correction is not exact: on a very busy host the
// kernel slows more than the program (in one huge-net run the kernel
// took 1.8× its reference time and the requests 1.3× theirs), so such a
// run reads fast. The quartiles over ten runs that bound a metric's
// spread are robust to a few such runs; the wall-clock figures are not
// robust to the drift.

// calIters is the calibration kernel's length: about 10 ms, short next
// to most requests and long next to the scheduler's time slice.
const calIters = 4_000_000

// refCalibrationS is the calibration kernel's time on the reference host,
// an unloaded two-core x86-64 VM (Intel Xeon). It only sets the scale of
// the normalized figures: on that host they read as wall time.
const refCalibrationS = 0.0105

// calWindow is how many calibrations on each side of a request set the
// host speed it is normalized by: their median, so a calibration that a
// garbage collection or a passing stall overlaps does not move it.
const calWindow = 3

// calSink keeps the kernel's result live.
var calSink struct {
	mu sync.Mutex
	v  uint64
}

// calibrate runs the kernel once on every worker, as the program's
// workers run, and returns its wall time in seconds. The kernel is a
// xorshift loop: no memory traffic and no allocation, so it neither
// triggers nor assists a garbage collection.
func calibrate() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed
			for i := 0; i < calIters; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			calSink.mu.Lock()
			calSink.v += x
			calSink.mu.Unlock()
		}(88172645463325252 + uint64(g))
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// hostScale returns the factor that turns a wall time measured between
// calibrations cal[i] and cal[i+1] into reference-host time: the
// reference kernel time over the median of the calibrations within
// calWindow of that interval.
func hostScale(cal []float64, i int) float64 {
	lo, hi := max(0, i+1-calWindow), min(len(cal), i+1+calWindow)
	return refCalibrationS / median(cal[lo:hi])
}
