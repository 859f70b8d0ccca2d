package core

import (
	"fmt"

	"highrpm/internal/dataset"
	"highrpm/internal/interp"
	"highrpm/internal/neural"
	"highrpm/internal/pmu"
	"highrpm/internal/stats"
)

// DynamicTRROptions configures DynamicTRR training.
type DynamicTRROptions struct {
	// MissInterval is the window length in samples (§4.2.2 sets the
	// sliding window size to miss_interval so every window contains one
	// measured reading).
	MissInterval int
	// Hidden and Layers shape the LSTM (paper: two hidden layers; §6.4.3
	// found small networks best).
	Hidden, Layers int
	// Epochs and MaxWindows bound offline training cost.
	Epochs     int
	MaxWindows int
	// FineTuneOnline enables per-measurement refinement during Run.
	FineTuneOnline bool
	Seed           int64
}

// DefaultDynamicTRROptions returns the §6.1 configuration sized for the
// single-core evaluation machine.
func DefaultDynamicTRROptions() DynamicTRROptions {
	return DynamicTRROptions{
		MissInterval: 10, Hidden: 16, Layers: 2,
		Epochs: 18, MaxWindows: 1200, FineTuneOnline: true, Seed: 17,
	}
}

func (o *DynamicTRROptions) fill() {
	if o.MissInterval < 2 {
		o.MissInterval = 10
	}
	if o.Hidden <= 0 {
		o.Hidden = 16
	}
	if o.Layers <= 0 {
		o.Layers = 2
	}
	if o.Epochs <= 0 {
		o.Epochs = 18
	}
}

// DynamicTRR is the real-time temporal restoration model: a compact LSTM
// over windows of (PMCs, previous node-power estimate) that predicts the
// node power between IM readings and fine-tunes itself whenever a measured
// reading arrives (§4.2.2).
type DynamicTRR struct {
	Opts DynamicTRROptions
	Net  *neural.LSTM
}

// FitDynamicTRR trains the LSTM offline on the labeled initial samples.
// The previous-node-power feature is taken from the spline estimate over
// the set's IM-visible readings, exactly the information available at run
// time ("P'_Node at the (i−1)-th moment ... can be determined from either
// the observed value or the spline model").
func FitDynamicTRR(train *dataset.Set, opts DynamicTRROptions) (*DynamicTRR, error) {
	opts.fill()
	if train.Len() < 3*opts.MissInterval {
		return nil, fmt.Errorf("core: DynamicTRR needs at least %d samples, got %d", 3*opts.MissInterval, train.Len())
	}
	prev, err := splineEstimate(train, train.MeasuredIndices(opts.MissInterval), nil)
	if err != nil {
		return nil, fmt.Errorf("core: DynamicTRR spline feature: %w", err)
	}
	windows := dataset.BuildWindows(train, prev, opts.MissInterval)
	windows = dataset.SubsampleWindows(windows, opts.MaxWindows)
	seqs, targets := dataset.WindowsToSeqs(windows)
	net := neural.NewLSTM(opts.Hidden, opts.Layers, opts.Seed)
	net.Epochs = opts.Epochs
	if err := net.FitSeq(seqs, targets); err != nil {
		return nil, fmt.Errorf("core: DynamicTRR fit: %w", err)
	}
	return &DynamicTRR{Opts: opts, Net: net}, nil
}

// Run performs online restoration over an ordered set: at each step the
// model predicts the node power from the trailing window; at measured steps
// the IM reading overrides the estimate and, when FineTuneOnline is set,
// the window anchored at the previous measurement fine-tunes the network
// (labels are the spline-anchored estimates with the measured step exact,
// the best labels available online). vals supplies IM readings for
// measuredIdx; nil uses ground truth at those indices.
func (d *DynamicTRR) Run(set *dataset.Set, measuredIdx []int, vals []float64) ([]float64, error) {
	n := set.Len()
	if n == 0 {
		return nil, fmt.Errorf("core: empty set")
	}
	measured := make(map[int]float64, len(measuredIdx))
	for k, i := range measuredIdx {
		if vals != nil {
			measured[i] = vals[k]
		} else {
			measured[i] = set.Samples[i].PNode
		}
	}
	miss := d.Opts.MissInterval
	est := make([]float64, n)
	times := set.Times()

	// Spline over the measurements seen so far, for fine-tune labels.
	var seenX, seenY []float64

	// The previous-node feature follows §4.2.2: "P'_Node at the (i−1)-th
	// moment ... can be determined from either the observed value or the
	// spline model". Online, the spline model over *past* readings is a
	// linear trend extrapolation; feeding it instead of the network's own
	// recursive output keeps per-step errors from compounding across the
	// gap and matches the splined feature used during offline training.
	var lastIdx = -1       // most recent measured index ≤ current step
	var lastVal float64    // its reading
	var trendSlope float64 // watts per step from the last two readings
	trendAt := func(i int) float64 {
		if lastIdx < 0 {
			return est[0]
		}
		return lastVal + trendSlope*float64(i-lastIdx)
	}
	prevAt := func(i int) float64 {
		if i <= 0 {
			if v, ok := measured[0]; ok {
				return v
			}
			return est[0]
		}
		if v, ok := measured[i-1]; ok {
			return v
		}
		return trendAt(i - 1)
	}
	// win is the trailing miss rows of (PMC, prevAt) features, rebuilt in
	// place for every prediction.
	win := make([][]float64, miss)
	for j := range win {
		win[j] = make([]float64, pmu.NumEvents+1)
	}

	var lastMeasured = -1
	for i := 0; i < n; i++ {
		if v, ok := measured[i]; ok {
			est[i] = v
			seenX = append(seenX, times[i])
			seenY = append(seenY, v)
			if d.Opts.FineTuneOnline && lastMeasured >= 0 && i-lastMeasured >= 2 && len(seenX) >= 2 {
				if err := d.fineTuneSegment(set, prevAt, seenX, seenY, lastMeasured, i); err != nil {
					return nil, err
				}
			}
			if lastMeasured >= 0 && i > lastMeasured {
				trendSlope = (v - lastVal) / float64(i-lastMeasured)
			}
			lastMeasured = i
			lastIdx, lastVal = i, v
		} else {
			for j, row := range win {
				k := max(0, i-miss+1+j)
				copy(row, set.Samples[k].PMC)
				row[pmu.NumEvents] = prevAt(k)
			}
			est[i] = d.Net.PredictLast(win)
		}
	}
	return est, nil
}

// fineTuneSegment refines the network on the just-completed segment
// [lo, hi] between two measurements. prevAt supplies the same previous-node
// feature the online windows used for that segment.
func (d *DynamicTRR) fineTuneSegment(set *dataset.Set, prevAt func(int) float64, seenX, seenY []float64, lo, hi int) error {
	sp, err := interp.NewCubicSpline(seenX, seenY)
	if err != nil {
		if err == interp.ErrTooFewPoints {
			return nil
		}
		return err
	}
	times := set.Times()
	win := make([][]float64, 0, hi-lo+1)
	labels := make([]float64, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		f := make([]float64, pmu.NumEvents+1)
		copy(f, set.Samples[i].PMC)
		f[pmu.NumEvents] = prevAt(i)
		win = append(win, f)
		labels = append(labels, sp.At(times[i]))
	}
	// Measured endpoints are exact.
	labels[0] = seenY[len(seenY)-2]
	labels[len(labels)-1] = seenY[len(seenY)-1]
	return d.Net.FineTune([][][]float64{win}, [][]float64{labels})
}

// Evaluate runs online restoration with a perfect sensor at the configured
// miss interval and scores against ground truth.
func (d *DynamicTRR) Evaluate(set *dataset.Set) (stats.Metrics, error) {
	idx := set.MeasuredIndices(d.Opts.MissInterval)
	est, err := d.Run(set, idx, nil)
	if err != nil {
		return stats.Metrics{}, err
	}
	return stats.Evaluate(set.NodePower(), est), nil
}
