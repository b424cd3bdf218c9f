package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// base anchors every timestamp the benchmark takes; now() is monotonic
// nanoseconds since process start, so due times, spans and visibility
// marks share one clock.
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

// quantile returns the q-quantile of xs (sorted in place) by the
// nearest-rank rule; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sleepUntil blocks until now() reaches t (nanoseconds on the base
// clock). It sleeps in the kernel rather than on a runtime timer: an idle
// Go process waits for timers in whole milliseconds, which would add up to
// a millisecond of generator lateness depending on how busy the run was.
func sleepUntil(t int64) {
	for d := t - now(); d > 0; d = t - now() {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// windows is how many equal sub-windows the open and peak phases are cut
// into; each reported figure is the median over them, so one disturbed
// stretch of a run (a neighbour's CPU burst, a GC storm) moves it little.
const windows = 10

// sample is one timing (ms) taken for work due or issued at at.
type sample struct {
	at int64
	ms float64
}

// windowedQuantile is the median, over the windows of [from, to), of
// each window's q-quantile of the samples taken in it.
func windowedQuantile(xs []sample, from, to int64, q float64) float64 {
	per := make([][]float64, windows)
	w := float64(to-from) / windows
	for _, x := range xs {
		i := int(float64(x.at-from) / w)
		if i >= 0 && i < windows {
			per[i] = append(per[i], x.ms)
		}
	}
	var qs []float64
	for _, v := range per {
		if len(v) > 0 {
			qs = append(qs, quantile(v, q))
		}
	}
	return median(qs)
}
