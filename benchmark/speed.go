package main

import (
	"math"
	"math/big"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox's two processors are virtual processors of a shared host. When a
// neighbour is busy the same instructions take up to twice as long, in
// bursts of milliseconds to minutes: the same request, on the same
// inputs, was measured at 40 ms and at 65 ms a quarter of an hour apart,
// and the daemon's own CPU time per request moved with it. No statistic
// over the run's own samples removes that, because whole runs fall into
// one regime.
//
// So the benchmark measures the machine while it measures the program. A
// speedometer runs a fixed unit of work (exact rational arithmetic with
// small allocations, like the constraint kernel, but none of the
// repository's code) between requests, every calEvery, in the benchmark's
// own process while the daemon is idle. Every time the benchmark reports
// is divided by the slowdown around the moment it was taken: the mean
// duration of the units within calReach of the interval, over calNominalMS.
// A reported millisecond is thus a millisecond of a machine on which the
// unit takes calNominalMS, which is this sandbox when it is quiet. Across
// runs in which the raw latency moved by 58 %, the normalised one stayed
// within 7 % (README.md, "Machine speed").
//
// The daemon's CPU time is divided by a slowdown of its own, taken from the
// CPU time the units used instead of their duration. While the neighbours
// only share the processor's pipelines the two agree (a unit's CPU time is
// 0.93 of its duration at every slowdown from 1.2 to 1.7), but when the
// host takes the processor away altogether (slowdowns of 3 to 8 were seen
// for minutes) durations grow faster than CPU times: divided by the
// duration slowdown, a CPU time per query of 38 ms read 21.
const (
	calNominalMS    = 3.0
	calNominalCPUMS = 2.8
	calIters        = 1500
	calEvery        = 20 * time.Millisecond
	calReach        = 250 * time.Millisecond
	calMinUnits     = 4 // a slowdown is the mean of at least this many units

	// trustedSlowdown is where the correction stops being linear: runs at
	// 1.1 to 2.2 agree within a few percent, runs at 3 to 8 (the host
	// withholding the processor, not sharing it) read up to 25 % off on
	// the median latency and far more on p95. Such a run says so.
	trustedSlowdown = 2.5
)

// calUnit is the fixed unit of work.
func calUnit() {
	a := big.NewRat(1, 3)
	s := new(big.Rat)
	for i := 0; i < calIters; i++ {
		s.Add(s, a)
		s.Mul(s, big.NewRat(int64(i%7+1), int64(i%5+2)))
		if s.Num().BitLen() > 200 {
			s.SetInt64(1)
		}
	}
}

// speedometer is the timeline of one run's units. It is used from one
// goroutine: the benchmark never runs a unit beside a request.
type speedometer struct {
	start []time.Time // when each unit began, ascending
	ms    []float64   // how long each took
	cpuMS []float64   // the CPU time each used
	last  time.Time   // when the latest unit ended
}

func newSpeedometer() *speedometer { return &speedometer{} }

// threadCPU is the CPU time the calling thread has used, from the
// thread's CPU clock: getrusage(RUSAGE_THREAD) only moves with the
// scheduler's tick, which is longer than a unit.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID (Linux)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// tick runs one unit and records it.
func (s *speedometer) tick() {
	runtime.LockOSThread()
	c0, t0 := threadCPU(), time.Now()
	calUnit()
	s.last = time.Now()
	cpu := threadCPU() - c0
	runtime.UnlockOSThread()
	s.start = append(s.start, t0)
	s.ms = append(s.ms, float64(s.last.Sub(t0).Nanoseconds())/1e6)
	s.cpuMS = append(s.cpuMS, float64(cpu.Nanoseconds())/1e6)
}

// burst runs n units back to back: the way to have samples around an
// interval that cannot be interrupted, such as a set-up.
func (s *speedometer) burst(n int) {
	for i := 0; i < n; i++ {
		s.tick()
	}
}

// tickIfDue runs a unit when calEvery has passed since the last one.
func (s *speedometer) tickIfDue() {
	if time.Since(s.last) >= calEvery {
		s.tick()
	}
}

// slowdown is how much slower than nominal the machine ran around the
// interval from a to b: the mean duration of the units that began within
// calReach of it, widened to the nearest calMinUnits units, over
// calNominalMS. A unit counts for at most twice the median of those units:
// now and then the whole process is frozen for 50 to 200 ms, and a freeze
// that happens to land in a unit says nothing about the speed of the
// requests beside it. Call it once the units after b have run.
func (s *speedometer) slowdown(a, b time.Time) float64 {
	return s.around(a, b, s.ms, calNominalMS)
}

// cpuSlowdown is slowdown for CPU times: by how much the CPU time of the
// units around the interval exceeded its nominal value.
func (s *speedometer) cpuSlowdown(a, b time.Time) float64 {
	return s.around(a, b, s.cpuMS, calNominalCPUMS)
}

// around is the capped mean of per (one value per unit) over the units
// around the interval from a to b, as a multiple of nominal; 1 when no
// unit has run.
func (s *speedometer) around(a, b time.Time, per []float64, nominal float64) float64 {
	n := len(s.start)
	if n == 0 {
		return 1
	}
	lo := sort.Search(n, func(i int) bool { return !s.start[i].Before(a.Add(-calReach)) })
	hi := sort.Search(n, func(i int) bool { return s.start[i].After(b.Add(calReach)) })
	for hi-lo < calMinUnits && (lo > 0 || hi < n) {
		if lo > 0 {
			lo--
		}
		if hi < n {
			hi++
		}
	}
	units := per[lo:hi]
	limit := 2 * median(units)
	var total float64
	for _, u := range units {
		total += math.Min(u, limit)
	}
	return total / float64(len(units)) / nominal
}

// interval is a measurement waiting for the units after it to have run:
// ms was taken between t0 and t1 (it need not be their distance: it may
// be a CPU time, or a part of the interval).
type interval struct {
	t0, t1 time.Time
	ms     float64
}

// since is the interval from t0 to now, and its length.
func since(t0 time.Time) interval {
	t1 := time.Now()
	return interval{t0, t1, float64(t1.Sub(t0).Nanoseconds()) / 1e6}
}

// nominal is iv's measurement in nominal milliseconds.
func (s *speedometer) nominal(iv interval) float64 { return iv.ms / s.slowdown(iv.t0, iv.t1) }

func (s *speedometer) nominals(ivs []interval) []float64 {
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		out[i] = s.nominal(iv)
	}
	return out
}
