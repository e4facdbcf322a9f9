package main

import (
	"math"
	"sort"
	"time"
)

// tail is one latency distribution reduced to the numbers the
// benchmark reports: the median, the nearest-rank p90, and the highest
// percentile that still has at least minBeyond samples above it
// (capped at p99), with the sample count and the percentile actually
// used.
type tail struct {
	N          int
	P50        float64
	P90        float64
	Tail       float64
	Percentile float64 // the percentile Tail reports, e.g. 99 or 97.5
}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to be more than one outlier.
const minBeyond = 10

// tailIndex returns the nearest-rank index of the reported tail
// percentile in a sorted sample of n values, and that percentile.
// It is p99 when n ≥ 1000; below that it is the highest rank with
// minBeyond samples above it. With n ≤ minBeyond no rank qualifies and
// the median stands in for the tail.
func tailIndex(n int) (idx int, pct float64) {
	if n == 0 {
		return -1, 0
	}
	if n <= minBeyond {
		idx = (n - 1) / 2
		return idx, 100 * float64(idx+1) / float64(n)
	}
	idx = int(math.Ceil(0.99*float64(n))) - 1
	if lim := n - 1 - minBeyond; idx > lim {
		idx = lim
	}
	return idx, 100 * float64(idx+1) / float64(n)
}

// summarize reduces samples (any unit) to a tail; the input is not
// modified.
func summarize(samples []float64) tail {
	if len(samples) == 0 {
		return tail{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx, pct := tailIndex(len(s))
	p90 := s[int(math.Ceil(0.9*float64(len(s))))-1]
	return tail{N: len(s), P50: median(s), P90: p90, Tail: s[idx], Percentile: pct}
}

// median of a sorted slice; the mean of the middle pair when even.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of v and returns its median.
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return median(s)
}

// meanOf is the arithmetic mean of v, 0 when v is empty.
func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// step is one value of a piecewise-constant signal, in effect from At
// until the next step.
type step struct {
	At    time.Time
	Value float64
}

// timeWeightedMean is the mean of the piecewise-constant signal over
// [from, to): each step weighs by how long it was in effect inside the
// window. Steps must be in time order. The value in effect at from is
// the last step at or before it; before the first step the signal is
// undefined and that part of the window is left out. ok is false when
// no part of the window is covered.
func timeWeightedMean(steps []step, from, to time.Time) (mean float64, ok bool) {
	var sum, covered float64
	for i, s := range steps {
		start := s.At
		if start.Before(from) {
			start = from
		}
		end := to
		if i+1 < len(steps) && steps[i+1].At.Before(to) {
			end = steps[i+1].At
		}
		if !end.After(start) {
			continue
		}
		w := end.Sub(start).Seconds()
		sum += w * s.Value
		covered += w
	}
	if covered == 0 {
		return 0, false
	}
	return sum / covered, true
}

// tally counts operations against their failures: refused or failed
// HTTP calls, and accepted mutations whose decision was not published
// within the timeout.
type tally struct {
	Attempted int
	Failed    int
}

func (t *tally) add(failed bool) {
	t.Attempted++
	if failed {
		t.Failed++
	}
}

// failFrac is Failed / Attempted, 0 when nothing was attempted.
func (t tally) failFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// clock is the time source the open-loop generator paces against; the
// real one sleeps, the test one advances a counter.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// timing is one open-loop operation as the generator saw it: when it
// was due, when it was actually sent, and when its response completed.
type timing struct {
	Due, Sent, Done time.Time
	Err             error
}

// Latency is measured from the due time, so a stall that delays later
// sends counts against every operation it delayed.
func (t timing) Latency() time.Duration { return t.Done.Sub(t.Due) }

// Late is how far behind schedule the generator sent the operation.
func (t timing) Late() time.Duration {
	if d := t.Sent.Sub(t.Due); d > 0 {
		return d
	}
	return 0
}

// openLoop sends op i at start+due[i] regardless of how earlier ones
// fared (one connection, so an operation due while the previous one is
// outstanding is sent as soon as that one returns, and is late by the
// difference).
func openLoop(clk clock, start time.Time, due []time.Duration, do func(i int) error) []timing {
	out := make([]timing, 0, len(due))
	for i, d := range due {
		at := start.Add(d)
		clk.SleepUntil(at)
		t := timing{Due: at, Sent: clk.Now()}
		t.Err = do(i)
		t.Done = clk.Now()
		out = append(out, t)
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
