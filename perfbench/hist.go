package main

import (
	"math"
	"math/bits"
	"time"
)

// hist is a fixed-size log-bucket latency histogram in nanoseconds: values
// below 128 ns get exact buckets, larger ones 64 sub-buckets per power of
// two, so any quantile is within 1/64 of the true sample. Recording never
// allocates, which keeps the generator out of the heap it measures. It is
// not safe for concurrent use; each load loop owns its own.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    uint64
}

const (
	histExact   = 128
	histSub     = 64
	histBuckets = histExact + 57*histSub
)

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < histExact {
		return int(v)
	}
	e := bits.Len64(v) - 7 // v>>e lies in [64, 128)
	return histExact + (e-1)*histSub + int(v>>e) - histSub
}

// bucketRange returns the lowest value of bucket b and its width.
func bucketRange(b int) (lo, width uint64) {
	if b < histExact {
		return uint64(b), 1
	}
	e := (b-histExact)/histSub + 1
	m := uint64((b-histExact)%histSub + histSub)
	return m << e, 1 << e
}

func (h *hist) record(d time.Duration) {
	v := uint64(d)
	if d < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// recordFailure records a failed call so it ranks above every success: at
// the client call timeout plus the time the call took to fail.
func (h *hist) recordFailure(timeout, elapsed time.Duration) {
	h.record(timeout + elapsed)
}

// quantile returns the q-quantile (0 < q <= 1) in nanoseconds, the value of
// rank ceil(q*n) interpolated inside its bucket; NaN when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		if c == 0 || seen+c < rank {
			seen += c
			continue
		}
		lo, width := bucketRange(b)
		v := float64(lo) + float64(width)*(float64(rank-seen)-0.5)/float64(c)
		return math.Min(v, float64(h.max))
	}
	return float64(h.max)
}
