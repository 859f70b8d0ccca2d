package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice; 0 when the slice is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLadder is the percentiles a tail latency may be reported at, each
// with the share of samples beyond it written as one in k.
var tailLadder = []struct {
	p float64
	k int
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// tailPercentile returns the highest percentile of the ladder that still
// has at least ten samples beyond it, and its value — a p99.9 of 2000
// samples is two outliers, not a percentile. Fewer than a hundred samples
// support nothing above the median.
func tailPercentile(sorted []float64) (p, v float64) {
	n := len(sorted)
	if n == 0 {
		return tailLadder[0].p, 0
	}
	p, rank := tailLadder[0].p, n-n/2
	for _, step := range tailLadder[1:] {
		if n/step.k >= 10 {
			p, rank = step.p, n-n/step.k
		}
	}
	return p, sorted[rank-1]
}

// median sorts a copy of vals and returns its middle value (the mean of
// the middle two for an even count).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sortedMicros converts nanosecond durations to ascending microseconds.
func sortedMicros(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / 1e3
	}
	sort.Float64s(out)
	return out
}

// accuracy accumulates absolute percentage errors of returned estimates
// against the simulator's ground truth.
type accuracy struct {
	node, trr, cpu, mem     float64
	nNode, nTRR, nComponent int
}

// add scores one estimate. Node error counts every second from the
// node's first IM reading on (before it the monitor has nothing to
// restore from); TRR error counts only the seconds without a reading,
// the ones the LSTM actually predicted.
func (a *accuracy) add(s *second, pnode, pcpu, pmem float64, sawReading bool) {
	if sawReading {
		e := math.Abs(pnode-s.pnode) / s.pnode
		a.node += e
		a.nNode++
		if s.measured == nil {
			a.trr += e
			a.nTRR++
		}
	}
	a.cpu += math.Abs(pcpu-s.pcpu) / s.pcpu
	a.mem += math.Abs(pmem-s.pmem) / s.pmem
	a.nComponent++
}

func (a *accuracy) merge(b *accuracy) {
	a.node += b.node
	a.trr += b.trr
	a.cpu += b.cpu
	a.mem += b.mem
	a.nNode += b.nNode
	a.nTRR += b.nTRR
	a.nComponent += b.nComponent
}

func pct(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

func (a *accuracy) nodeMAPE() float64 { return pct(a.node, a.nNode) }
func (a *accuracy) trrMAPE() float64  { return pct(a.trr, a.nTRR) }

// srrMAPE is the mean of the CPU and memory MAPEs.
func (a *accuracy) srrMAPE() float64 { return pct((a.cpu+a.mem)/2, a.nComponent) }
