package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// mib is the unit every "MB" metric is reported in.
const mib = 1 << 20

// Runtime metric names read at iteration and span boundaries.
const (
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmSchedLat   = "/sched/latencies:seconds"
)

// rtSnap is one reading of the runtime counters the benchmark reports.
type rtSnap struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	sched      *metrics.Float64Histogram
}

func readRuntime() rtSnap {
	s := []metrics.Sample{{Name: rmAllocBytes}, {Name: rmGCCycles}, {Name: rmGCCPU}, {Name: rmSchedLat}}
	metrics.Read(s)
	return rtSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		sched:      s[3].Value.Float64Histogram(),
	}
}

// schedP99 returns the 99th percentile, in seconds, of how long
// goroutines waited runnable between the two readings: the upper bound
// of the first histogram bucket whose cumulative count reaches 99%.
func schedP99(from, to rtSnap) float64 {
	counts := make([]uint64, len(to.sched.Counts))
	var total uint64
	for i, c := range to.sched.Counts {
		counts[i] = c - from.sched.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= need {
			if hi := to.sched.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return to.sched.Buckets[i]
		}
	}
	return to.sched.Buckets[len(to.sched.Buckets)-1]
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// stealSeconds is the machine's CPU time stolen by the hypervisor so
// far (the steal column of /proc/stat, summed over CPUs), or 0 where the
// kernel does not report it. It is a diagnostic: competing load on the
// host shows up here while the program's own counts stay put.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// settle returns freed heap to the OS and resets the kernel's peak-RSS
// mark to the current resident size, so the next peakRSSMiB reading is
// the peak of what runs in between.
func settle() error {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0+).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads VmHWM, the peak resident set size since settle.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / mib, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// median of xs; xs is left sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
