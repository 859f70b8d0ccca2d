package core

import (
	"fmt"

	"highrpm/internal/dataset"
	"highrpm/internal/interp"
	"highrpm/internal/neural"
	"highrpm/internal/stats"
)

// DynamicTRROptions configures DynamicTRR training.
type DynamicTRROptions struct {
	// MissInterval is the window length in samples (§4.2.2 sets the
	// sliding window size to miss_interval so every window contains one
	// measured reading).
	MissInterval int
	// Hidden and Layers shape the LSTM. The paper fixes two hidden layers
	// (§4.2.2) but finds small networks best (§6.4.3); here one layer is
	// both cheaper and more accurate (`hyper`), so that is the default.
	// neural.NewLSTM keeps its own two-layer default for the Table 4 LSTM
	// baseline.
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
		MissInterval: 10, Hidden: 16, Layers: 1,
		Epochs: 18, MaxWindows: 1200, FineTuneOnline: true, Seed: 17,
	}
}

// fill takes each unset shape or budget field from DefaultDynamicTRROptions.
func (o *DynamicTRROptions) fill() {
	def := DefaultDynamicTRROptions()
	if o.MissInterval < 2 {
		o.MissInterval = def.MissInterval
	}
	if o.Hidden <= 0 {
		o.Hidden = def.Hidden
	}
	if o.Layers <= 0 {
		o.Layers = def.Layers
	}
	if o.Epochs <= 0 {
		o.Epochs = def.Epochs
	}
}

// DynamicTRR is the real-time temporal restoration model: a compact LSTM
// over windows of (PMCs, previous node-power estimate) that predicts the
// node power between IM readings and fine-tunes itself whenever a measured
// reading arrives (§4.2.2).
type DynamicTRR struct {
	Opts DynamicTRROptions
	Net  *neural.LSTM
	// cold is the previous-node feature before the first IM reading: the
	// midpoint of the training power band.
	cold float64
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
	lo, hi := minMax(train.NodePower())
	return &DynamicTRR{Opts: opts, Net: net, cold: 0.5 * (lo + hi)}, nil
}

// Run performs online restoration over an ordered set by replaying it, one
// second at a time, through the stream Monitor serves from: at measured
// steps the IM reading is the estimate, elsewhere the network predicts from
// the trailing window. When FineTuneOnline is set, each reading also
// fine-tunes the network on the segment it closes — the rows the stream
// held since the previous reading, labelled with the spline through the
// readings so far (the best labels available online). vals supplies IM
// readings for measuredIdx; nil uses ground truth at those indices.
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
	est := make([]float64, n)
	times := set.Times()
	s := d.newStream()
	var seenX, seenY []float64 // the readings so far
	var seg [][]float64        // the stream's rows since the previous reading, inclusive
	for i, sm := range set.Samples {
		var reading *float64
		if v, ok := measured[i]; ok {
			reading = &v
		}
		prime, err := s.observe(sm.PMC, reading)
		if err != nil {
			return nil, err
		}
		est[i] = s.estimate(prime, reading)
		if !d.Opts.FineTuneOnline {
			continue
		}
		seg = append(seg, append([]float64(nil), s.rows[len(s.rows)-1]...))
		if reading == nil {
			continue
		}
		seenX = append(seenX, times[i])
		seenY = append(seenY, *reading)
		// A segment to learn from has a reading at each end and at least
		// one second in between.
		if len(seenX) >= 2 && len(seg) >= 3 {
			if err := d.fineTuneSegment(seg, times[i+1-len(seg):i+1], seenX, seenY); err != nil {
				return nil, err
			}
		}
		seg = seg[len(seg)-1:]
	}
	return est, nil
}

// fineTuneSegment refines the network on the just-completed segment between
// two measurements: rows are the stream's inputs over it, endpoints
// included, and times their timestamps.
func (d *DynamicTRR) fineTuneSegment(rows [][]float64, times, seenX, seenY []float64) error {
	sp, err := interp.NewCubicSpline(seenX, seenY)
	if err != nil {
		if err == interp.ErrTooFewPoints {
			return nil
		}
		return err
	}
	labels := make([]float64, len(rows))
	for k, t := range times {
		labels[k] = sp.At(t)
	}
	// Measured endpoints are exact.
	labels[0] = seenY[len(seenY)-2]
	labels[len(labels)-1] = seenY[len(seenY)-1]
	return d.Net.FineTune([][][]float64{rows}, [][]float64{labels})
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
