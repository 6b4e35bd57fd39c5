package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// with fewer, the percentile is decided by a handful of outliers and
// cannot be compared between runs.
const minTail = 10

// tailLadder lists the percentiles a tail may be reported at, lowest
// first.
var tailLadder = []float64{0.5, 0.9, 0.99}

// supportedTail returns the highest percentile of tailLadder that
// leaves at least minTail of n samples beyond it, or 0 when even the
// median is unsupported.
func supportedTail(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if n-rank(n, q) >= minTail {
			best = q
		}
	}
	return best
}

// rank is the nearest-rank position ⌈q·n⌉ of the q-quantile among n
// samples. The tolerance keeps q·n from rounding up past a whole
// number (0.9·100 is 90.00000000000001 in floating point).
func rank(n int, q float64) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

// quantile returns the nearest-rank q-quantile of an ascending slice,
// or 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[max(0, min(rank(n, q)-1, n-1))]
}

// median sorts a copy of xs and returns its nearest-rank median.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// durationsMs converts and sorts durations as milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// outcome is what one sent request came to, as the client sees it.
type outcome struct {
	answered bool          // a serve.Result came back
	late     time.Duration // answer time minus due time (answered only)
	deadline time.Duration
	rung     int // ladder rung of the answer (answered only)
	hi       bool
}

// met reports whether the request was answered within its own
// deadline, counted from when it was due to be sent. A rejected or
// failed request never meets it.
func (o outcome) met() bool { return o.answered && o.late <= o.deadline }

// quality summarises a run's outcomes over every request sent.
type quality struct {
	hitRate, hiHitRate float64 // answers within deadline ÷ sent
	rungMean           float64 // mean rung, 0 for a missed request
	sent, hiSent       int
}

// summarise computes the deadline metrics over every request sent.
// Rejects and failures are misses and count as rung 0.
func summarise(outs []outcome) quality {
	var q quality
	met, hiMet, rungs := 0, 0, 0
	for _, o := range outs {
		q.sent++
		if o.hi {
			q.hiSent++
		}
		if !o.met() {
			continue
		}
		met++
		rungs += o.rung
		if o.hi {
			hiMet++
		}
	}
	if q.sent > 0 {
		q.hitRate = float64(met) / float64(q.sent)
		q.rungMean = float64(rungs) / float64(q.sent)
	}
	if q.hiSent > 0 {
		q.hiHitRate = float64(hiMet) / float64(q.hiSent)
	}
	return q
}
