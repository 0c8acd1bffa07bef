package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostMark is one reading of the host clocks: wall time, process CPU
// (user+sys, so GC on other threads counts) and the heap's cumulative
// allocation counters.
type hostMark struct {
	wall    time.Time
	cpu     time.Duration
	alloc   uint64 // MemStats.TotalAlloc
	mallocs uint64 // MemStats.Mallocs
	gcs     uint32 // MemStats.NumGC
}

// hostSpan is the difference of two hostMarks.
type hostSpan struct {
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
	gcs     uint32
}

func markHost() hostMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostMark{wall: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcs: ms.NumGC}
}

func (m hostMark) since(start hostMark) hostSpan {
	return hostSpan{
		wall:    m.wall.Sub(start.wall),
		cpu:     m.cpu - start.cpu,
		alloc:   m.alloc - start.alloc,
		mallocs: m.mallocs - start.mallocs,
		gcs:     m.gcs - start.gcs,
	}
}

// processCPU reports the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reports the process's peak resident set (VmHWM) in MB, or
// 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb * 1024 / 1e6
	}
	return 0
}

// quantile returns the q-quantile (nearest rank) of xs, sorting a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median returns the median of xs (the mean of the middle pair for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durQuantileMS returns the q-quantile of ds in milliseconds.
func durQuantileMS(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e6
	}
	return quantile(xs, q)
}

// Host times are reported in reference-host seconds: a rep's raw
// figure times calibRef over the rep's calibration time, the time two
// fixed units of host work took right before and after the rep. On a
// shared host the machine's speed drifts by a fifth within minutes;
// the scaled figures cancel most of that drift, so two runs of the same
// code agree within the benchmark's bounds.
const calibRef = 40 * time.Millisecond

// calibTrials is the number of trials of each calibration unit run
// before and after a rep.
const calibTrials = 3

var calibSink uint64

var calibTable = make([]uint64, 4<<20) // 32 MB, larger than the last-level cache

// calibrate times calibTrials trials of each calibration unit and
// returns the trial durations of each.
func calibrate() (mem, rt []float64) {
	for range calibTrials {
		t0 := time.Now()
		calibMemory()
		mem = append(mem, float64(time.Since(t0)))
		t0 = time.Now()
		calibRuntime()
		rt = append(rt, float64(time.Since(t0)))
	}
	return mem, rt
}

// calibMemory is the memory-bound calibration unit: dependent random
// reads and writes over a table larger than the last-level cache,
// interleaved with arithmetic.
func calibMemory() {
	x := uint64(88172645463325252)
	t := calibTable
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ t[x&(4<<20-1)]) & (4<<20 - 1)
		t[j] += x
	}
	calibSink += x
}

// calibRuntime is the cache-resident calibration unit, the Go runtime's
// kind of work: small allocations, map updates and a sort.
func calibRuntime() {
	m := make(map[int]int, 1024)
	var keep [][]byte
	xs := make([]int, 4096)
	x := uint64(12345)
	for i := 0; i < 600_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[int(x&4095)] += i
		if i%16 == 0 {
			keep = append(keep, make([]byte, 64+int(x&127)))
			if len(keep) > 256 {
				keep = keep[:0]
			}
		}
		xs[i&4095] = int(x >> 40)
	}
	sort.Ints(xs)
	calibSink += uint64(len(m) + xs[7] + len(keep))
}
