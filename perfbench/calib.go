package main

import (
	"math/rand/v2"
	"time"
)

// The benchmark's hosts share cores with other tenants, and the speed a
// core gives one process drifts by tens of percent over seconds to
// minutes. Every reported time is therefore normalized by a fixed
// calibration kernel run interleaved with the measured work: a unit
// taking d while the kernel takes c reports d·calibRef/c, the time on a
// machine state where the kernel takes calibRef. The kernel is the
// benchmark's own code and never changes with the program under test,
// so the ratio cancels most of the host's drift and keeps the program's
// speed. On the 2-vCPU host the bounds were set on, it narrowed the
// interquartile spread of ten runs' medians from 7–16% to 1–7%; memory-
// heavy work still reads up to ~10% faster, normalized, while the whole
// host is quiet.
const (
	// calibRef is the kernel time normalized results are scaled to,
	// about its time on the machine the metric bounds were set on.
	calibRef = 600 * time.Microsecond
	// calibEvery is how much measured work may pass between two
	// calibrations.
	calibEvery = 10 * time.Millisecond
	// The kernel's fixed work is a dependent chain of multiply, add and
	// shift steps, which tracks how much of its core the host gives the
	// process, then random gathers from a table far beyond a core's
	// caches, which track contention for the shared cache and memory.
	// Of the kernels tried (either part alone, smaller tables, streaming
	// passes), this mix's ratio to a trial's time varied least between
	// runs.
	calibSteps   = 90_000
	calibGathers = 1 << 13
	calibWords   = 1 << 22 // 16 MiB of uint32
)

var (
	calibTable = func() []uint32 {
		t := make([]uint32, calibWords)
		r := rand.New(rand.NewPCG(1, 2))
		for i := range t {
			t[i] = r.Uint32()
		}
		return t
	}()
	calibSink uint64 // keeps the kernel's result observable
)

// calibrate runs the kernel once and returns its duration.
func calibrate() time.Duration {
	t0 := time.Now()
	s := uint64(7)
	for i := range uint64(calibSteps) {
		s = s*0x9e3779b97f4a7c15 + i
		s ^= s >> 29
	}
	r := rand.New(rand.NewPCG(3, 4))
	for range calibGathers {
		x := r.Uint64()
		s += uint64(calibTable[x&(calibWords-1)]) ^ (x>>7)*0x9e3779b97f4a7c15
	}
	calibSink += s
	return time.Since(t0)
}

// scaler normalizes measured times by the most recent calibration,
// recalibrating once calibEvery of measured work has passed.
type scaler struct {
	last  time.Duration   // most recent kernel time
	since time.Duration   // work measured since it
	all   []time.Duration // every kernel time of the run
}

// ready calibrates if the last calibration is stale. Call it between
// units, never inside a timed span.
func (s *scaler) ready() {
	if s.last > 0 && s.since < calibEvery {
		return
	}
	s.last = calibrate()
	s.since = 0
	s.all = append(s.all, s.last)
}

// spent records d of measured work since the last ready.
func (s *scaler) spent(d time.Duration) { s.since += d }

// norm records unit time d, measured since the last ready, and returns
// it normalized to the reference machine state, in milliseconds.
func (s *scaler) norm(d time.Duration) float64 {
	s.spent(d)
	return ms(d) * float64(calibRef) / float64(s.last)
}

// factor is the run-wide normalization: calibRef over the median kernel
// time of the run. Set-up times and traced layer spans are scaled by it.
func (s *scaler) factor() float64 {
	ks := make([]float64, len(s.all))
	for i, k := range s.all {
		ks[i] = float64(k)
	}
	return float64(calibRef) / median(ks)
}
