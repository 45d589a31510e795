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

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is not modified; an empty xs gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p05 is the benchmark's estimator for "the undisturbed cost": on the
// reference host means and upper percentiles of the same binary moved
// 15-30 % run to run, the 5th percentile 5-9 % (see README, sizing).
func p05(xs []float64) float64 { return quantile(xs, 0.05) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartileSpread is the distance between the first and the third
// quartile as a share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives: the spread the pipeline judges a
// metric's bound by.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)+1) // 1-based position between order statistics
		lo := max(1, min(int(pos), len(s)-1))
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return ratio(at(0.75)-at(0.25), median(s))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procLine returns the first line of a /proc file that starts with key,
// or "" when the file or the line is missing.
func procLine(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), key) {
			return sc.Text()
		}
	}
	return ""
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f := strings.Fields(procLine("/proc/self/status", "VmHWM:"))
	if len(f) < 2 {
		return 0
	}
	kb, _ := strconv.ParseFloat(f[1], 64)
	return kb / 1024
}

// cpuTicks reads the host's aggregate steal and total jiffies, so a run
// can say what share of the machine the hypervisor took from it.
func cpuTicks() (steal, total float64) {
	for i, s := range strings.Fields(procLine("/proc/stat", "cpu ")) {
		v, _ := strconv.ParseFloat(s, 64)
		if i >= 1 && i <= 8 { // user..steal; guest columns are already inside user
			total += v
		}
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func cpuModel() string {
	if _, model, ok := strings.Cut(procLine("/proc/cpuinfo", "model name"), ":"); ok {
		return strings.TrimSpace(model)
	}
	return "unknown"
}
