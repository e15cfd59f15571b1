package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// memCounters are the Go runtime's cumulative allocation and GC counters.
type memCounters struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNs           uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, gcPauseNs: ms.PauseTotalNs}
}

func (m memCounters) sub(o memCounters) memCounters {
	return memCounters{
		mallocs:    m.mallocs - o.mallocs,
		allocBytes: m.allocBytes - o.allocBytes,
		gcCycles:   m.gcCycles - o.gcCycles,
		gcPauseNs:  m.gcPauseNs - o.gcPauseNs,
	}
}

func (m *memCounters) add(o memCounters) {
	m.mallocs += o.mallocs
	m.allocBytes += o.allocBytes
	m.gcCycles += o.gcCycles
	m.gcPauseNs += o.gcPauseNs
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// loadAvg1 is the one-minute load average.
func loadAvg1() float64 {
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err != nil {
		return math.NaN()
	}
	return float64(si.Loads[0]) / (1 << 16)
}

// cpuModel names the host CPU ("unknown" where the kernel does not say).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
