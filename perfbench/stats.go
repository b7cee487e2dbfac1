package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
// A p99 read from 53 samples is the maximum in disguise, so a timing
// is reported at the highest percentile its sample count supports.
const minTail = 10

// summary is a timing reported as a median plus the highest percentile
// that has at least minTail samples beyond it.
type summary struct {
	N      int     // sample count
	Median float64 // p50
	P      int     // highest supported percentile (0 when N is too small)
	PValue float64 // value at percentile P
	Q3     float64 // upper quartile
	Max    float64
}

// tail is the value at percentile P. With too few samples for any
// percentile to leave ten beyond it, it is the upper quartile: the
// maximum of a handful of samples would report the noisiest one.
func (s summary) tail() float64 {
	if s.P > 0 {
		return s.PValue
	}
	return s.Q3
}

// highestPercentile returns the largest integer percentile q <= 99
// whose nearest-rank value leaves at least minTail of n samples beyond
// it, or 0 when even the median would not.
func highestPercentile(n int) int {
	for q := 99; q >= 50; q-- {
		if n-rankOf(q, n) >= minTail {
			return q
		}
	}
	return 0
}

// rankOf is the nearest-rank position (1-based) of percentile q in n
// sorted samples.
func rankOf(q, n int) int {
	r := int(math.Ceil(float64(q) * float64(n) / 100))
	return max(1, min(n, r))
}

// percentile returns the nearest-rank percentile q of sorted samples.
func percentile(sorted []float64, q int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(q, len(sorted))-1]
}

// summarize sorts a copy of xs and reports it.
func summarize(xs []float64) summary {
	s := slices.Clone(xs)
	slices.Sort(s)
	out := summary{N: len(s), Median: median(s)}
	if len(s) > 0 {
		out.Q3 = percentile(s, 75)
		out.Max = s[len(s)-1]
	}
	if out.P = highestPercentile(len(s)); out.P > 0 {
		out.PValue = percentile(s, out.P)
	}
	return out
}

// median of already sorted samples (mean of the middle pair when even).
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// medianOf is median over an unsorted slice.
func medianOf(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return median(s)
}

// openLoopResult is one open-loop phase: per-request latency measured
// from the moment the request was due, and how late the generator
// itself was in handing each request out.
type openLoopResult struct {
	Latency  []float64 // ms, due → completion, one per request
	Late     []float64 // ms, due → dispatch by the generator
	Failures int
}

// openLoop issues n requests at a fixed rate (requests per second) on
// at most workers concurrent callers. Request i is due at start+i/rate
// whether or not earlier ones have finished, so a stall delays the
// requests queued behind it and their latency shows it: each latency
// runs from the due time, never from the moment a worker picked the
// request up. Late records how far behind schedule the generator
// dispatched each request (time waiting for a free worker excluded),
// which tells whether the schedule itself was kept.
func openLoop(n int, rate float64, workers int, do func(i int) error) openLoopResult {
	res := openLoopResult{Latency: make([]float64, n), Late: make([]float64, n)}
	failed := make([]bool, n)
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				err := do(j.i)
				res.Latency[j.i] = ms(time.Since(j.due))
				failed[j.i] = err != nil
			}
		}()
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.Late[i] = ms(time.Since(due))
		jobs <- job{i: i, due: due}
	}
	close(jobs)
	wg.Wait()
	for _, f := range failed {
		if f {
			res.Failures++
		}
	}
	return res
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
