package core

import "math"

// postProcessConfig parameterises Algorithm 1.
type postProcessConfig struct {
	// PUpper and PBottom bound plausible node power.
	PUpper, PBottom float64
	// Alpha and Beta are the relative-agreement thresholds: estimates that
	// agree within Alpha·min trust the spline, between Alpha and Beta they
	// are averaged, and beyond Beta the spline wins again (the residual
	// model is treated as unreliable at large disagreement).
	Alpha, Beta float64
	// MissInterval sizes the spike-propagation window of Operation 1.
	MissInterval int
}

// postProcess implements the paper's Algorithm 1, reconciling the spline
// and ResModel estimates of StaticTRR:
//
//   - Operation 1 propagates spline-detected spikes: where the spline
//     deviates from its local neighbourhood by more than 30% of the power
//     range, the spike value is held across ±miss_interval/2. (The paper
//     states the trigger as "P_splined[i] ≥ 30%·(P_upper − P_bottom)",
//     which as an absolute test would always fire; we read it as a
//     deviation test, documented in DESIGN.md.)
//   - Operations 2 and 3 clamp residual-model outputs outside the
//     plausible power band back to the spline value.
//   - The final three rules blend the two estimates by their relative
//     disagreement using Alpha and Beta.
//
// The input slices are not modified; the blended P_trr series is returned.
func postProcess(psplined, presidual []float64, cfg postProcessConfig) []float64 {
	n := len(psplined)
	if len(presidual) != n {
		panic("core: postProcess length mismatch")
	}
	if cfg.MissInterval < 2 {
		cfg.MissInterval = 10
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 0.05
	}
	if cfg.Beta <= cfg.Alpha {
		cfg.Beta = 4 * cfg.Alpha
	}
	spl := append([]float64(nil), psplined...)
	res := append([]float64(nil), presidual...)
	prange := cfg.PUpper - cfg.PBottom
	if prange <= 0 {
		prange = 1
	}
	half := cfg.MissInterval / 2

	// Operation 1: spike propagation on the spline estimate.
	if half > 0 {
		base := append([]float64(nil), spl...)
		for i := 0; i < n; i++ {
			lo, hi := i-half, i+half
			if lo < 0 {
				lo = 0
			}
			if hi >= n {
				hi = n - 1
			}
			local := localMean(base, lo, hi, i)
			if math.Abs(base[i]-local) >= 0.30*prange {
				for j := lo; j <= hi; j++ {
					spl[j] = base[i]
				}
			}
		}
	}

	out := make([]float64, n)
	for i := 0; i < n; i++ {
		// Operations 2 and 3: implausible residual estimates fall back to
		// the spline.
		if res[i] >= cfg.PUpper || res[i] <= cfg.PBottom {
			res[i] = spl[i]
		}
		diff := math.Abs(spl[i] - res[i])
		ref := math.Min(math.Abs(spl[i]), math.Abs(res[i]))
		switch {
		case diff <= cfg.Alpha*ref:
			out[i] = spl[i]
		case diff <= cfg.Beta*ref:
			out[i] = 0.5 * (spl[i] + res[i])
		default:
			out[i] = spl[i]
		}
		// Final plausibility clamp: when the reading interval aliases a
		// workload's internal loop, the cubic spline overshoots far past
		// any power the node can draw; the training power band bounds the
		// estimate (with a small margin for unseen extremes).
		margin := 0.10 * prange
		if out[i] > cfg.PUpper+margin {
			out[i] = cfg.PUpper + margin
		}
		if out[i] < cfg.PBottom-margin {
			out[i] = cfg.PBottom - margin
		}
	}
	return out
}

// localMean averages v[lo..hi] excluding index skip.
func localMean(v []float64, lo, hi, skip int) float64 {
	var s float64
	var k int
	for j := lo; j <= hi; j++ {
		if j == skip {
			continue
		}
		s += v[j]
		k++
	}
	if k == 0 {
		return v[skip]
	}
	return s / float64(k)
}
