package main

import (
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentileOf returns the p-th percentile (0..1) of s by linear
// interpolation between closest ranks; 0 for an empty set.
func percentileOf[T ~int64 | ~float64](s []T, p float64) T {
	if len(s) == 0 {
		return 0
	}
	c := append([]T(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	pos := p * float64(len(c)-1)
	lo := int(pos)
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[lo] + T((pos-float64(lo))*float64(c[lo+1]-c[lo]))
}

// samples collects wall times of one kind of op.
type samples []time.Duration

func (s samples) percentile(p float64) time.Duration { return percentileOf(s, p) }

func (s samples) median() time.Duration { return s.percentile(0.5) }

// bestOf keeps the fastest of every k consecutive samples (a short last
// group is dropped).  The hosts this runs on slow single ops down by up to
// 1.7x in bursts that no statistic over single ops survives once they hit
// half of them; a burst has to hit k ops in a row to move a sample here.
func (s samples) bestOf(k int) samples {
	out := make(samples, 0, len(s)/k)
	for ; len(s) >= k; s = s[k:] {
		best := s[0]
		for _, d := range s[1:k] {
			if d < best {
				best = d
			}
		}
		out = append(out, best)
	}
	return out
}

func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func ns(d time.Duration) float64 { return float64(d) }

// ratio is a/b, or 0 when b is 0 (a metric of a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf times f reps times and returns the median.
func medianOf(reps int, f func() time.Duration) time.Duration {
	s := make(samples, reps)
	for i := range s {
		s[i] = f()
	}
	return s.median()
}

// timeIt is the benchmark's stopwatch around one call.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// newRand derives a workload's private generator from the run seed, so
// two workloads never share a stream.
func newRand(seed int64, workload string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range []byte(workload) {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*1000003 + h))
}

// peakRSSMiB reads VmHWM from /proc/self/status; 0 where there is none.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
