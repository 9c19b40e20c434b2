package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail percentile resting on fewer is noise, not a measurement.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least q·n samples at or below it. Empty input
// yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest-rank position of the q-quantile among n
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// beyond counts the samples of n that lie past the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// highestSupported returns the highest of the candidate quantiles that n
// samples support with at least minBeyond samples past it, or 0 when none
// does.
func highestSupported(n int, qs ...float64) float64 {
	best := 0.0
	for _, q := range qs {
		if q > best && beyond(n, q) >= minBeyond {
			best = q
		}
	}
	return best
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (an idle layer reads 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spans collects the harness's own timed calls into the program's public
// entry points: per-name durations, one per call. A nil *spans records
// nothing, so the untimed verification path shares the replay code.
type spans struct {
	mu     sync.Mutex
	times  map[string][]float64 // name -> per-call milliseconds
	values map[string][]float64 // name -> per-job observations (counts, ratios)
}

func newSpans() *spans {
	return &spans{times: map[string][]float64{}, values: map[string][]float64{}}
}

// time runs f as one call of name and records its duration.
func (s *spans) time(name string, f func()) {
	if s == nil {
		f()
		return
	}
	t := time.Now()
	f()
	d := ms(time.Since(t))
	s.mu.Lock()
	s.times[name] = append(s.times[name], d)
	s.mu.Unlock()
}

// now and since time a region by hand; both are free when s is nil.
func (s *spans) now() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *spans) since(t time.Time) float64 {
	if s == nil {
		return 0
	}
	return ms(time.Since(t))
}

// observe records one per-job value of name.
func (s *spans) observe(name string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.values[name] = append(s.values[name], v)
	s.mu.Unlock()
}

// median is the median per-call duration of name in ms (0 if never called).
func (s *spans) median(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(s.times[name])
}

// valueMean is the mean of name's per-job observations.
func (s *spans) valueMean(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return mean(s.values[name])
}

// valueMedian is the median of name's per-job observations.
func (s *spans) valueMedian(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(s.values[name])
}
