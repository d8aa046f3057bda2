package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a percentile with fewer samples above it is one outlier's
// value, not a property of the distribution.
const minBeyond = 10

// tail is a reported tail statistic: the value at Pct, computed from N
// samples.
type tail struct {
	Value float64
	Pct   float64
	N     int
}

// tailOf reports the highest percentile that has at least minBeyond
// samples beyond it, capped at capPct (0 = no cap). With too few samples
// for any such percentile it reports the maximum (Pct 100).
func tailOf(xs []float64, capPct float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sorted(xs)
	if n <= minBeyond {
		return tail{Value: s[n-1], Pct: 100, N: n}
	}
	// Nearest rank: index k has n-1-k samples beyond it.
	k := n - 1 - minBeyond
	if capPct > 0 {
		if c := int(math.Ceil(capPct/100*float64(n))) - 1; c < k {
			k = c
		}
	}
	return tail{Value: s[k], Pct: 100 * float64(k+1) / float64(n), N: n}
}

// median is the middle sample (mean of the two middle ones for an even
// count).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// lateness is how long after its due time an open-loop request was
// actually sent (never negative).
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

// backlogSample is the number of admitted-but-unfinished jobs at one
// instant of a rung.
type backlogSample struct {
	At      time.Duration
	Backlog int
}

// backlogSlope is the least-squares growth rate, in jobs per second, of a
// rung's backlog over the rung, or 0 when the rung ended
// with at most floor jobs outstanding. A steady backlog (jobs in service
// plus a short queue) stays flat however high it sits; one the system
// cannot keep up with climbs.
func backlogSlope(samples []backlogSample, floor int) float64 {
	if len(samples) < 4 {
		return 0
	}
	half := samples
	if half[len(half)-1].Backlog <= floor {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, s := range half {
		x := s.At.Seconds()
		y := float64(s.Backlog)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	n := float64(len(half))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// withinWindow drops the samples taken after the last request was due:
// the drain that follows shrinks any backlog and is not growth.
func withinWindow(samples []backlogSample, window time.Duration) []backlogSample {
	for len(samples) > 0 && samples[len(samples)-1].At > window {
		samples = samples[:len(samples)-1]
	}
	return samples
}
