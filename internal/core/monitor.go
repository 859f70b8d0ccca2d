package core

import (
	"fmt"

	"highrpm/internal/pmu"
)

// Monitor is the streaming form of HighRPM used by the cluster service and
// the live monitoring tools: samples arrive one second at a time, IM
// readings arrive every miss_interval seconds, and each Push returns the
// restored node power plus the CPU/memory breakdown for that second.
//
// The previous-node feature fed to the DynamicTRR network is the same
// trend value DynamicTRR.Run uses online: the last IM reading extrapolated
// with the slope of the last two readings (§4.2.2 allows "the observed
// value or the spline model"); recursive feedback of the network's own
// outputs would compound drift across the gap.
type Monitor struct {
	h    *HighRPM
	miss int

	// rows is the trailing window, most recent last. Each row is one
	// second's DynamicTRR input: the Table 2 PMCs, then the previous-node
	// feature used at that step. Once miss rows are held the slice is the
	// network input as it stands, and each new second rotates it, refilling
	// the evicted row — so a long-running monitor stops allocating.
	rows [][]float64
	n    int64 // samples seen

	padded [][]float64 // front-padded view of a history shorter than the window, built lazily
	srrIn  []float64   // SRR input scratch (PMCs plus the node estimate)

	lastIdx  int64   // sample index of the last IM reading (-1: none yet)
	lastVal  float64 // its value
	slope    float64 // watts per step from the last two readings
	haveMeas bool
}

// NewMonitor wraps a trained HighRPM model for streaming use.
func NewMonitor(h *HighRPM) *Monitor {
	return &Monitor{h: h, miss: h.Opts.Dynamic.MissInterval, lastIdx: -1, srrIn: make([]float64, pmu.NumEvents+1)}
}

// MonitorEstimate is one second's restored power.
type MonitorEstimate struct {
	PNode float64
	PCPU  float64
	PMEM  float64
	// PNodePrime is the P'_Node trend value for this second — the last IM
	// reading extrapolated by the inter-reading slope (§4.2.2). It is the
	// feature DynamicTRR conditions on and is recorded alongside the
	// estimates so stored history can explain what the model saw.
	PNodePrime float64
	// FromMeasurement reports whether PNode came from an IM reading rather
	// than the DynamicTRR prediction.
	FromMeasurement bool
}

// trendAt extrapolates the node power at sample index i from the readings
// seen so far.
func (m *Monitor) trendAt(i int64) float64 {
	if !m.haveMeas {
		// Cold start: the training power band's midpoint.
		return 0.5 * (m.h.Static.PBottom + m.h.Static.PUpper)
	}
	return m.lastVal + m.slope*float64(i-m.lastIdx)
}

// Observe advances the monitor by one second of telemetry without
// estimating anything: the window history and the IM trend move exactly as
// Push moves them, and the network is never run. The monitor's state is a
// function of the (pmc, measured) stream alone — no estimate is ever fed
// back — so a replica that only Observes stays ready to Push the next
// second bit-identically to one that Pushed all along. It returns the
// second's P'_Node trend value (MonitorEstimate.PNodePrime). measured
// carries the IM reading when one arrived this second (nil otherwise); pmc
// must hold the Table 2 events in feature order.
func (m *Monitor) Observe(pmc []float64, measured *float64) (float64, error) {
	if len(pmc) != pmu.NumEvents {
		return 0, fmt.Errorf("core: monitor expects %d PMC features, got %d", pmu.NumEvents, len(pmc))
	}
	prevFeature := m.trendAt(m.n - 1)
	if measured != nil {
		if m.haveMeas && m.n > m.lastIdx {
			m.slope = (*measured - m.lastVal) / float64(m.n-m.lastIdx)
		}
		m.lastIdx, m.lastVal, m.haveMeas = m.n, *measured, true
	}
	prime := m.trendAt(m.n)
	var row []float64
	if len(m.rows) >= m.miss && len(m.rows) > 0 {
		row = m.rows[0]
		copy(m.rows, m.rows[1:])
		m.rows[len(m.rows)-1] = row
	} else {
		row = make([]float64, pmu.NumEvents+1)
		m.rows = append(m.rows, row)
	}
	copy(row, pmc)
	row[pmu.NumEvents] = prevFeature
	m.n++
	return prime, nil
}

// Push processes one second of telemetry: Observe, then the estimate for
// that second — the IM reading when one arrived, the DynamicTRR prediction
// over the trailing window otherwise, and the SRR split of whichever it
// was.
func (m *Monitor) Push(pmc []float64, measured *float64) (MonitorEstimate, error) {
	prime, err := m.Observe(pmc, measured)
	if err != nil {
		return MonitorEstimate{}, err
	}
	// Before the first IM reading there is nothing to predict from: the
	// trend's cold-start value stands in for the estimate.
	est := MonitorEstimate{PNode: prime, PNodePrime: prime}
	switch {
	case measured != nil:
		est.PNode, est.FromMeasurement = *measured, true
	case m.haveMeas:
		est.PNode = m.h.Dynamic.Net.PredictLast(m.window())
	}
	est.PCPU, est.PMEM = m.h.SRR.predictInto(m.srrIn, pmc, est.PNode)
	return est, nil
}

// window returns the DynamicTRR input ending at the newest row. In steady
// state that is rows itself; a shorter history is front-padded to the
// window length with its oldest row (aliased, not copied: the network only
// reads its input).
func (m *Monitor) window() [][]float64 {
	if len(m.rows) >= m.miss {
		return m.rows
	}
	if m.padded == nil {
		m.padded = make([][]float64, m.miss)
	}
	pad := m.miss - len(m.rows)
	for i := 0; i < pad; i++ {
		m.padded[i] = m.rows[0]
	}
	copy(m.padded[pad:], m.rows)
	return m.padded
}

// Samples returns how many seconds of telemetry the monitor has processed.
func (m *Monitor) Samples() int64 { return m.n }
