package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: 64 sub-buckets
// per power of two, so any reported quantile is within 1.6% of the true
// sample. Recording allocates nothing, which keeps the benchmark's own
// footprint out of the heap figures of long closed-loop runs.
type hist struct {
	counts [64 * 64]uint64
	n      uint64
	sum    float64
}

const histSub = 64

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 7 // top 7 bits: 1 leading + 6 sub-bucket bits
	return (e+1)*histSub + int((v>>uint(e))&(histSub-1))
}

// histLower is the smallest value mapped to bucket i.
func histLower(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	e := i/histSub - 1
	return (uint64(histSub) | uint64(i%histSub)) << uint(e)
}

func (h *hist) add(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	i := histIndex(v)
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
	h.sum += float64(v)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds (bucket midpoint).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo := histLower(i)
			hi := histLower(i + 1)
			return float64(lo+hi) / 2
		}
	}
	return float64(histLower(len(h.counts) - 1))
}

// opStats is one operation class's latencies over a run's untraced
// rounds: every sample pooled, and each round's median. The end-to-end
// figure is the median of the round medians, which a burst of machine
// noise spanning a few rounds does not move.
type opStats struct {
	pooled  hist
	medians []float64 // ns, one per round
}

// addRound folds one round's samples in.
func (o *opStats) addRound(h *hist) {
	if h.n == 0 {
		return
	}
	o.pooled.merge(h)
	o.medians = append(o.medians, h.quantile(0.5))
}

// tailQ is the tail percentile the benchmark reports for n samples: the
// highest percentile with at least ten samples beyond it, capped at p99.
// Below 20 samples there is no tail, and the median stands in.
func tailQ(n uint64) float64 {
	if n < 20 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	return q
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// percentile returns the p-quantile (0..1) of xs by nearest rank; xs is
// reordered.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}
