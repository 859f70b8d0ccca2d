// Package stats implements the error metrics the paper reports for every
// model comparison — MAPE, RMSE, MAE and the coefficient of determination R²
// (§5.5) — plus small online summary helpers used by the monitoring service.
package stats

import (
	"fmt"
	"math"
)

// Metrics bundles the four accuracy metrics used throughout the evaluation.
type Metrics struct {
	MAPE float64 // mean absolute percentage error, in percent
	RMSE float64 // root mean squared error, in the unit of the target (W)
	MAE  float64 // mean absolute error, in the unit of the target (W)
	R2   float64 // coefficient of determination
	N    int     // number of scored points
}

// String renders the metrics the way the paper's tables do.
func (m Metrics) String() string {
	return fmt.Sprintf("MAPE=%.2f%% RMSE=%.2f MAE=%.2f R2=%.3f (n=%d)", m.MAPE, m.RMSE, m.MAE, m.R2, m.N)
}

// Evaluate scores predictions against observations. Pairs where the
// observation is zero are excluded from MAPE (division by zero) but included
// in the other metrics, matching common practice.
func Evaluate(observed, predicted []float64) Metrics {
	if len(observed) != len(predicted) {
		panic(fmt.Sprintf("stats: length mismatch %d vs %d", len(observed), len(predicted)))
	}
	if len(observed) == 0 {
		return Metrics{}
	}
	var (
		sumAPE  float64
		nAPE    int
		sumSq   float64
		sumAbs  float64
		sumObs  float64
		present int
	)
	for i, o := range observed {
		p := predicted[i]
		if math.IsNaN(o) || math.IsNaN(p) {
			continue
		}
		present++
		d := p - o
		sumSq += d * d
		sumAbs += math.Abs(d)
		sumObs += o
		if o != 0 {
			sumAPE += math.Abs(d / o)
			nAPE++
		}
	}
	if present == 0 {
		return Metrics{}
	}
	m := Metrics{
		RMSE: math.Sqrt(sumSq / float64(present)),
		MAE:  sumAbs / float64(present),
		N:    present,
	}
	if nAPE > 0 {
		m.MAPE = 100 * sumAPE / float64(nAPE)
	}
	// R² = 1 − SS_res/SS_tot.
	mean := sumObs / float64(present)
	var ssTot float64
	for i, o := range observed {
		if math.IsNaN(o) || math.IsNaN(predicted[i]) {
			continue
		}
		d := o - mean
		ssTot += d * d
	}
	if ssTot > 0 {
		m.R2 = 1 - sumSq/ssTot
	}
	return m
}

// Average returns the element-wise mean of several Metrics, used to report
// the mean over the seven Table 3 train/test combinations.
func Average(ms []Metrics) Metrics {
	if len(ms) == 0 {
		return Metrics{}
	}
	var out Metrics
	for _, m := range ms {
		out.MAPE += m.MAPE
		out.RMSE += m.RMSE
		out.MAE += m.MAE
		out.R2 += m.R2
		out.N += m.N
	}
	k := float64(len(ms))
	out.MAPE /= k
	out.RMSE /= k
	out.MAE /= k
	out.R2 /= k
	return out
}

// Running accumulates streaming mean/min/max/variance (Welford) for the
// monitoring service's per-sensor summaries.
type Running struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Push adds an observation.
func (r *Running) Push(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations pushed.
func (r *Running) N() int { return r.n }

// Mean returns the running mean.
func (r *Running) Mean() float64 { return r.mean }

// Min returns the smallest observation (0 if none).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 if none).
func (r *Running) Max() float64 { return r.max }

// M2 returns the running sum of squared deviations (the Welford
// accumulator), exposed so a Running can be persisted and restored
// bit-exactly.
func (r *Running) M2() float64 { return r.m2 }

// RestoreRunning rebuilds a Running from persisted state. Feeding back the
// exact values returned by N/Mean/M2/Min/Max yields a summary that is
// bit-identical to the original — the tsdb snapshot format depends on this
// to round-trip open rollup buckets.
func RestoreRunning(n int, mean, m2, min, max float64) Running {
	return Running{n: n, mean: mean, m2: m2, min: min, max: max}
}

// Std returns the running population standard deviation.
func (r *Running) Std() float64 {
	if r.n == 0 {
		return 0
	}
	return math.Sqrt(r.m2 / float64(r.n))
}
