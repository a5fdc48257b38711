package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// samples collects latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/1e6) }

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// pick returns the q-quantile of sorted by nearest rank (0 when empty).
func pick(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// tail returns the q-quantile of sorted when at least minBeyond samples
// lie above its rank. Otherwise it falls back to the highest quantile that
// has minBeyond samples beyond it (the maximum when there are too few
// samples for any) and reports ok=false; used is the quantile returned.
func tail(sorted []float64, q float64) (v, used float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, q, false
	}
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if n-r >= minBeyond {
		return sorted[r-1], q, true
	}
	r = n - minBeyond
	if r < 1 {
		return sorted[n-1], 1, false
	}
	return sorted[r-1], float64(r) / float64(n), false
}

// median returns the middle value of xs (mean of the middle two).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// throughputSlices is how many equal-count slices of a window the
// throughput median is taken over.
const throughputSlices = 10

// sliceRate splits the completions after start into slices of equal op
// count and returns the median of their rates (ops/s), each slice running
// from the previous slice's last completion to its own. A stall slows the
// slices it falls in, not the median.
func sliceRate(start time.Time, done []time.Time, slices int) float64 {
	ts := append([]time.Time(nil), done...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	if len(ts) < slices {
		slices = len(ts)
	}
	var rates []float64
	prev := start
	for i := 0; i < slices; i++ {
		lo, hi := i*len(ts)/slices, (i+1)*len(ts)/slices
		end := ts[hi-1]
		if d := end.Sub(prev).Seconds(); d > 0 {
			rates = append(rates, float64(hi-lo)/d)
		}
		prev = end
	}
	return median(rates)
}

// read is one revoke-churn reader decrypt as the benchmark saw it.
type read struct {
	id         int
	start, end time.Time
	granted    bool // plaintext returned and equal to the one sent
	refused    bool // the SEM answered "identity is revoked"
}

// revWindow is one admin revoke/unrevoke cycle. Zero times are events that
// never happened (a failed cycle).
type revWindow struct {
	id            int
	issue         time.Time // revoke sent
	ack           time.Time // revoke acknowledged
	unrevokeIssue time.Time // unrevoke sent
	cleared       time.Time // unrevoke visible on every shard
}

// readOutcome classifies reader decrypts against the revocation history.
type readOutcome struct {
	failed      int // wrong plaintext, transport error, or refusal outside any revocation
	refused     int // refusals overlapping a revocation of that identity
	staleGrants int // grants that started after a revoke ack and ended before its unrevoke was sent
}

// classify judges every read once the run's revocation history is
// complete. A refusal is expected when the call overlapped the interval
// from a revoke's issue to the moment its unrevoke was visible everywhere
// (an unfinished cycle's interval is open-ended).
func classify(reads []read, windows []revWindow) readOutcome {
	byID := map[int][]revWindow{}
	for _, w := range windows {
		byID[w.id] = append(byID[w.id], w)
	}
	var o readOutcome
	for _, r := range reads {
		ws := byID[r.id]
		switch {
		case r.refused:
			expected := false
			for _, w := range ws {
				if !w.issue.IsZero() && !r.end.Before(w.issue) && (w.cleared.IsZero() || !r.start.After(w.cleared)) {
					expected = true
					break
				}
			}
			if expected {
				o.refused++
			} else {
				o.failed++
			}
		case r.granted:
			for _, w := range ws {
				if !w.ack.IsZero() && r.start.After(w.ack) && (w.unrevokeIssue.IsZero() || r.end.Before(w.unrevokeIssue)) {
					o.staleGrants++
					break
				}
			}
		default:
			o.failed++
		}
	}
	return o
}
