package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie above a reported tail
// percentile: a tail set by fewer samples is a handful of outliers, not a
// percentile.
const minBeyond = 10

var errNoSamples = errors.New("no samples")

// median returns the middle of xs (the mean of the two middle values for an
// even count).
func median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errNoSamples
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], nil
	}
	return (s[n/2-1] + s[n/2]) / 2, nil
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100).
// It refuses, with an error, a percentile that has fewer than minBeyond
// samples above its rank.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g out of (0, 100)", p)
	}
	n := len(xs)
	if n == 0 {
		return 0, errNoSamples
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// ms converts a duration to float milliseconds with all its digits.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// share returns num/den, or 0 for an empty base.
func share(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// clockTick is the unit of /proc/stat times (USER_HZ is 100 on Linux).
const clockTick = 10 * time.Millisecond

// stealTimes reads, per CPU, the time the hypervisor ran other guests
// while this guest's CPU wanted to run (the steal column of /proc/stat).
// It returns nil where the kernel does not report it.
func stealTimes() []time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var out []time.Duration
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		v, err := strconv.ParseInt(f[8], 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, time.Duration(v)*clockTick)
	}
	return out
}

// maxStolen returns the most steal time any one CPU accrued between two
// stealTimes readings: with every CPU busy in a parallel run, that is
// about how long the run waited for the host.
func maxStolen(before, after []time.Duration) time.Duration {
	var m time.Duration
	for i := range min(len(before), len(after)) {
		m = max(m, after[i]-before[i])
	}
	return m
}

// maxRSSMB returns the peak resident set size of this process in MB.
// On Linux, getrusage reports it in KiB.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// recordTail records the median and the p90 of xs (in ms) as name.p50 and
// name.p90 through record: r.e2e, r.layer or r.note.
func recordTail(record func(name, unit string, v float64), name string, xs []float64) error {
	p50, err := median(xs)
	if err != nil {
		return fmt.Errorf("%s.p50: %w", name, err)
	}
	p90, err := percentile(xs, 90)
	if err != nil {
		return fmt.Errorf("%s.p90: %w", name, err)
	}
	record(name+".p50", "ms", p50)
	record(name+".p90", "ms", p90)
	return nil
}
