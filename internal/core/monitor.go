package core

import (
	"fmt"
	"math"

	"highrpm/internal/pmu"
)

// stream is the online DynamicTRR loop of §4.2.2, and the only one: Monitor
// serves from it one second at a time and DynamicTRR.Run replays a recorded
// set through it, so the estimates the experiments score are the estimates
// the service answers.
//
// The previous-node feature of a row is fixed when the row arrives: the
// last IM reading extrapolated with the slope of the last two readings
// (§4.2.2 allows "the observed value or the spline model", and over past
// readings the spline is that trend). A later reading never revises it,
// and the network's own outputs are never fed back — they would compound
// drift across the gap — so the stream's state is a function of the
// (pmc, measured) sequence alone.
type stream struct {
	d *DynamicTRR

	// rows is the trailing window, most recent last. Each row is one
	// second's DynamicTRR input: the Table 2 PMCs, then the previous-node
	// feature used at that step. Once MissInterval rows are held the slice
	// is the network input as it stands, and each new second rotates it,
	// refilling the evicted row — so a long-running stream stops allocating.
	rows [][]float64
	n    int64 // samples seen

	padded [][]float64 // front-padded view of a history shorter than the window, built lazily

	lastIdx  int64   // sample index of the last IM reading (-1: none yet)
	lastVal  float64 // its value
	slope    float64 // watts per step from the last two readings
	haveMeas bool
}

func (d *DynamicTRR) newStream() stream { return stream{d: d, lastIdx: -1} }

// trendAt extrapolates the node power at sample index i from the readings
// seen so far; before the first one it is the model's cold-start value.
func (s *stream) trendAt(i int64) float64 {
	if !s.haveMeas {
		return s.d.cold
	}
	return s.lastVal + s.slope*float64(i-s.lastIdx)
}

// maxReadingWatts bounds the magnitude of an IM reading the stream
// accepts. No node draws a megawatt; a reading beyond it is a broken
// sensor or a forged frame, and a finite one near ±MaxFloat64 would
// overflow the trend slope to ±Inf and make every later estimate NaN.
const maxReadingWatts = 1e6

// observe advances the stream by one second: the IM trend takes the
// reading, if any, and the window takes the row. It returns the second's
// P'_Node trend value. A PMC vector of the wrong width, a PMC value that is
// not finite, or a reading that is not finite or beyond maxReadingWatts is
// refused before any state changes: the trend slope and the window would
// otherwise carry it into the estimates of later seconds.
func (s *stream) observe(pmc []float64, measured *float64) (float64, error) {
	if len(pmc) != pmu.NumEvents {
		return 0, fmt.Errorf("core: monitor expects %d PMC features, got %d", pmu.NumEvents, len(pmc))
	}
	for i, v := range pmc {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("core: PMC feature %d is %g", i, v)
		}
	}
	if measured != nil && !(math.Abs(*measured) <= maxReadingWatts) {
		return 0, fmt.Errorf("core: IM reading %g W is not finite or beyond ±%g W", *measured, maxReadingWatts)
	}
	prevFeature := s.trendAt(s.n - 1)
	if measured != nil {
		if s.haveMeas && s.n > s.lastIdx {
			s.slope = (*measured - s.lastVal) / float64(s.n-s.lastIdx)
		}
		s.lastIdx, s.lastVal, s.haveMeas = s.n, *measured, true
	}
	prime := s.trendAt(s.n)
	var row []float64
	if miss := s.d.Opts.MissInterval; len(s.rows) >= miss && len(s.rows) > 0 {
		row = s.rows[0]
		copy(s.rows, s.rows[1:])
		s.rows[len(s.rows)-1] = row
	} else {
		row = make([]float64, pmu.NumEvents+1)
		s.rows = append(s.rows, row)
	}
	copy(row, pmc)
	row[pmu.NumEvents] = prevFeature
	s.n++
	return prime, nil
}

// estimate is the node power for the second just observed: the IM reading
// when one arrived, the network's prediction over the trailing window
// otherwise. Before the first reading there is nothing to predict from,
// and the trend's cold-start value (prime) stands in.
func (s *stream) estimate(prime float64, measured *float64) float64 {
	switch {
	case measured != nil:
		return *measured
	case s.haveMeas:
		return s.d.Net.PredictLast(s.window())
	}
	return prime
}

// window returns the DynamicTRR input ending at the newest row. In steady
// state that is rows itself; a shorter history is front-padded to the
// window length with its oldest row (aliased, not copied: the network only
// reads its input).
func (s *stream) window() [][]float64 {
	miss := s.d.Opts.MissInterval
	if len(s.rows) >= miss {
		return s.rows
	}
	if s.padded == nil {
		s.padded = make([][]float64, miss)
	}
	pad := miss - len(s.rows)
	for i := 0; i < pad; i++ {
		s.padded[i] = s.rows[0]
	}
	copy(s.padded[pad:], s.rows)
	return s.padded
}

// Monitor is the streaming form of HighRPM used by the cluster service and
// the live monitoring tools: samples arrive one second at a time, IM
// readings arrive every miss_interval seconds, and each Push returns the
// restored node power plus the CPU/memory breakdown for that second. It is
// the DynamicTRR stream plus the SRR split.
type Monitor struct {
	stream
	srr   *SRR
	srrIn []float64 // SRR input scratch (PMCs plus the node estimate)
}

// NewMonitor wraps a trained HighRPM model for streaming use.
func NewMonitor(h *HighRPM) *Monitor {
	return &Monitor{stream: h.Dynamic.newStream(), srr: h.SRR, srrIn: make([]float64, pmu.NumEvents+1)}
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
	return m.observe(pmc, measured)
}

// Push processes one second of telemetry: Observe, then the estimate for
// that second and its SRR split.
func (m *Monitor) Push(pmc []float64, measured *float64) (MonitorEstimate, error) {
	prime, err := m.observe(pmc, measured)
	if err != nil {
		return MonitorEstimate{}, err
	}
	est := MonitorEstimate{PNode: m.estimate(prime, measured), PNodePrime: prime, FromMeasurement: measured != nil}
	est.PCPU, est.PMEM = m.srr.predictInto(m.srrIn, pmc, est.PNode)
	return est, nil
}

// Samples returns how many seconds of telemetry the monitor has processed.
func (m *Monitor) Samples() int64 { return m.n }
