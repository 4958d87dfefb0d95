package main

import (
	"math"
	"sync"
	"time"
)

// The host this benchmark runs on is a few vCPUs of a shared machine,
// and its speed drifts: the same ride can take 80% longer for a minute
// when neighbours are busy. A calibrator tracks that drift. Between
// steps of the timed work it runs a fixed reference kernel for a small
// share of the host time just spent, so the kernel samples the host at
// the moments the work ran; the ratio of the kernel's nominal to its
// measured speed then rescales the work's host time to a host running
// at nominal speed. The kernel is benchmark code and never changes with
// the program, so a change to the program moves the rescaled times in
// the same proportion as the raw ones, while a slow phase of the host
// moves the rescaled times far less. Phases that hit the program harder
// than the kernel, such as vCPU wake-up delays on split_ride's
// cross-CPU exchanges, are only partly taken out.
//
// Only untimed gaps run the kernel: the reported times exclude it.
// Traced runs use no calibrator, so the kernel never shows in a CPU
// profile.

const (
	// calShare is the kernel's host time as a share of the work's.
	calShare = 0.1
	// calNominalNs is the host time of one kernel unit at nominal
	// speed. It sets only the scale of the reported times: 20 µs is
	// near the unit's time on a 2-vCPU Intel Xeon VM with Go 1.24.
	calNominalNs = 20_000
	// calWords is the size of the kernel's lookup table in 4-byte
	// words: 256 KiB, which stays in the core's own caches, so the
	// program's memory traffic on another core hardly slows the kernel.
	calWords = 64 << 10
)

// calTable is the kernel's lookup table. As a package array it lives
// outside the Go heap and adds nothing to the heap the benchmark
// reports or to the GC's pacing.
var calTable [calWords]uint32

func init() {
	for i := range calTable {
		calTable[i] = uint32(i) * 2654435761
	}
}

// calUnit is one unit of reference work: transcendental float math
// like the radio model's, then dependent random reads from the table.
// It allocates nothing and writes no shared memory. seed threads state
// between units, so no unit can be skipped.
func calUnit(seed uint32) uint32 {
	x := seed
	acc := 0.0
	for i := 0; i < 400; i++ {
		f := float64(i)*0.01 + float64(x&7) + 1
		acc += math.Log10(f)*math.Sin(f) + math.Exp(-f) + math.Sqrt(f)
	}
	for i := 0; i < 800; i++ {
		x = x*1664525 + 1013904223
		x ^= calTable[x&(calWords-1)]
	}
	return x ^ uint32(acc)
}

// calibrator accumulates the kernel units run and the host time they
// took. A nil calibrator runs nothing and reports speed 1. It is safe
// for concurrent use.
type calibrator struct {
	mu    sync.Mutex
	units int64
	spent time.Duration
	state uint32
}

func newCalibrator() *calibrator { return &calibrator{state: 1} }

// after runs the kernel for about calShare of busy, the host time of
// the work just done, and at least one unit.
func (c *calibrator) after(busy time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	x := c.state
	c.mu.Unlock()
	want := time.Duration(float64(busy) * calShare)
	t0 := time.Now()
	var units int64
	var spent time.Duration
	for units == 0 || spent < want {
		x = calUnit(x)
		units++
		spent = time.Since(t0)
	}
	c.mu.Lock()
	c.state = x
	c.units += units
	c.spent += spent
	c.mu.Unlock()
}

// spentTime is the host time the kernel has taken so far.
func (c *calibrator) spentTime() time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spent
}

// speed is the host's speed over every gap so far: the kernel's
// nominal over its measured time, below 1 when the host ran slow. It
// is 1 on a nil calibrator or before any unit ran.
func (c *calibrator) speed() float64 {
	if c == nil {
		return 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.units == 0 {
		return 1
	}
	return calNominalNs * float64(c.units) / float64(c.spent.Nanoseconds())
}
