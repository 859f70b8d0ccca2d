// Package governor implements power-capping control policies on top of
// HighRPM's restored readings. The paper's Fig. 1 shows why governors fail
// on raw integrated measurement — readings arrive tens of seconds apart —
// and HighRPM's per-second estimates are exactly the missing input. This
// package turns that observation into a small control library: a policy
// interface, three policies (hysteresis step, PID, trend-predictive), and
// a closed-loop runner against the platform simulator.
package governor

import (
	"fmt"

	"highrpm/internal/core"
	"highrpm/internal/platform"
	"highrpm/internal/workload"
)

// Decision is a DVFS action: lower one level, hold, or raise one level.
type Decision int

// Decisions.
const (
	Lower Decision = -1
	Hold  Decision = 0
	Raise Decision = +1
)

// Policy decides a DVFS step from the current power estimate. Policies may
// keep internal state; one Policy instance governs one node.
type Policy interface {
	// Act returns the action for this second given the latest power
	// estimate (watts) and the cap.
	Act(estimate, cap float64) Decision
	// Name identifies the policy in reports.
	Name() string
	// Reset clears internal state for a fresh run.
	Reset()
}

// Hysteresis is the classic step governor of Fig. 1: lower above the cap,
// raise only below cap−margin.
type Hysteresis struct {
	// MarginFrac is the hysteresis band as a fraction of the cap. The
	// default, 0.30, is sized to the coarse DVFS ladder: one level down
	// moves CPU dynamic power by ~(f₁/f₀)^α ≈ 35%, so a narrower band makes
	// the governor oscillate between levels and defeats the cap.
	MarginFrac float64
}

// Name implements Policy.
func (h *Hysteresis) Name() string { return "hysteresis" }

// Reset implements Policy.
func (h *Hysteresis) Reset() {}

// Act implements Policy.
func (h *Hysteresis) Act(estimate, cap float64) Decision {
	m := h.MarginFrac
	if m <= 0 {
		m = 0.30
	}
	switch {
	case estimate > cap:
		return Lower
	case estimate < cap-m*cap:
		return Raise
	default:
		return Hold
	}
}

// PID is a discrete PID controller whose output is quantised to DVFS
// steps. The integral term lets it sit close to the cap without the wide
// hysteresis band; the derivative term reacts to spikes as they rise.
type PID struct {
	// Kp, Ki, Kd are the controller gains on the normalised error
	// (cap − estimate)/cap. Zero values take tuned defaults.
	Kp, Ki, Kd float64
	// Deadband is the normalised |error| below which the controller holds
	// (default 0.04).
	Deadband float64

	integral float64
	prevErr  float64
	havePrev bool
}

// Name implements Policy.
func (p *PID) Name() string { return "pid" }

// Reset implements Policy.
func (p *PID) Reset() {
	p.integral, p.prevErr, p.havePrev = 0, 0, false
}

// Act implements Policy. The cap is treated as a hard constraint: any
// over-cap estimate lowers immediately; the PID terms only govern how
// eagerly headroom is converted back into frequency.
func (p *PID) Act(estimate, cap float64) Decision {
	kp, ki, kd := p.Kp, p.Ki, p.Kd
	if kp == 0 && ki == 0 && kd == 0 {
		kp, ki, kd = 1.0, 0.05, 0.5
	}
	dead := p.Deadband
	if dead <= 0 {
		dead = 0.04
	}
	err := (cap - estimate) / cap // positive: headroom, negative: over cap
	p.integral += err
	// Anti-windup: the integral cannot usefully exceed a few steps.
	if p.integral > 3 {
		p.integral = 3
	}
	if p.integral < -3 {
		p.integral = -3
	}
	var deriv float64
	if p.havePrev {
		deriv = err - p.prevErr
	}
	p.prevErr, p.havePrev = err, true
	if err < 0 {
		return Lower
	}
	u := kp*err + ki*p.integral + kd*deriv
	// Raising needs clear, sustained headroom: a step up moves CPU dynamic
	// power by ~(f₁/f₀)^α ≈ 35%, so require commensurate margin.
	if u > 0.25+dead {
		return Raise
	}
	return Hold
}

// Predictive acts on a short linear forecast of the estimate stream: if
// power *will* cross the cap within Horizon seconds at the current slope,
// it lowers pre-emptively. It wraps another policy for the steady state.
type Predictive struct {
	// Horizon is the look-ahead in seconds (default 3).
	Horizon float64
	// Base handles the non-preemptive decisions (default Hysteresis).
	Base Policy

	prev     float64
	havePrev bool
}

// NewPredictive returns a predictive policy over a hysteresis base.
func NewPredictive(horizon float64) *Predictive {
	return &Predictive{Horizon: horizon, Base: &Hysteresis{}}
}

// Name implements Policy.
func (p *Predictive) Name() string { return "predictive" }

// Reset implements Policy.
func (p *Predictive) Reset() {
	p.prev, p.havePrev = 0, false
	if p.Base != nil {
		p.Base.Reset()
	}
}

// Act implements Policy.
func (p *Predictive) Act(estimate, cap float64) Decision {
	h := p.Horizon
	if h <= 0 {
		h = 3
	}
	if p.Base == nil {
		p.Base = &Hysteresis{}
	}
	var slope float64
	if p.havePrev {
		slope = estimate - p.prev
	}
	p.prev, p.havePrev = estimate, true
	if estimate+slope*h > cap && slope > 0 {
		return Lower
	}
	return p.Base.Act(estimate, cap)
}

// Source supplies the governor's power estimate each second.
type Source interface {
	// Estimate consumes this second's telemetry and returns the governor's
	// power view. measured is the IM reading when one arrived (nil
	// otherwise).
	Estimate(pmc []float64, measured *float64) (float64, error)
	Name() string
}

// RawIM is the baseline source: the estimate only changes when an IM
// reading arrives (Fig. 1's stale-reading regime).
type RawIM struct {
	last float64
	seen bool
}

// Name implements Source.
func (r *RawIM) Name() string { return "raw-im" }

// Estimate implements Source.
func (r *RawIM) Estimate(_ []float64, measured *float64) (float64, error) {
	if measured != nil {
		r.last = *measured
		r.seen = true
	}
	if !r.seen {
		return 0, nil
	}
	return r.last, nil
}

// ModelSource feeds the governor HighRPM's per-second restored power.
type ModelSource struct {
	mon *core.Monitor
}

// NewModelSource wraps a trained model.
func NewModelSource(m *core.HighRPM) *ModelSource {
	return &ModelSource{mon: core.NewMonitor(m)}
}

// Name implements Source.
func (s *ModelSource) Name() string { return "highrpm" }

// Estimate implements Source.
func (s *ModelSource) Estimate(pmc []float64, measured *float64) (float64, error) {
	est, err := s.mon.Push(pmc, measured)
	if err != nil {
		return 0, err
	}
	return est.PNode, nil
}

// Config drives a governed run.
type Config struct {
	CapWatts float64
	// MissInterval is the IM reading gap in seconds (Fig. 1's PI).
	MissInterval int
	// ActInterval is the gap between policy actions in seconds (Fig. 1's
	// AI, default 1).
	ActInterval int
	// MaxDuration bounds the run (default 4× nominal program length).
	MaxDuration float64
}

// Outcome summarises a governed run.
type Outcome struct {
	Policy, Source    string
	PeakW             float64
	EnergyJ           float64
	OverCapSeconds    float64
	CompletionSeconds float64
	// OverCapReadings counts the IM readings above the cap: the over-cap
	// time a governor on raw readings can see.
	OverCapReadings int
	// MeanFreqGHz indicates how much performance the policy preserved.
	MeanFreqGHz float64
}

// Run executes the benchmark on the node under the policy and source. The
// loop is closed: stale readings (large MissInterval) and slow actions
// (large ActInterval) let power overshoot the cap, raising peak power and
// total energy as Fig. 1 demonstrates.
func Run(node *platform.Node, b workload.Benchmark, src Source, pol Policy, cfg Config) (Outcome, error) {
	if cfg.CapWatts <= 0 {
		return Outcome{}, fmt.Errorf("governor: cap must be positive")
	}
	if cfg.MissInterval <= 0 {
		cfg.MissInterval = 10
	}
	if cfg.ActInterval <= 0 {
		cfg.ActInterval = 1
	}
	if cfg.MaxDuration <= 0 {
		cfg.MaxDuration = 4 * b.TotalDuration()
		if cfg.MaxDuration < 600 {
			cfg.MaxDuration = 600
		}
	}
	pol.Reset()
	node.Attach(b)
	out := Outcome{Policy: pol.Name(), Source: src.Name()}
	var freqSum float64
	t := 0
	for ; !node.Idle() && float64(t) < cfg.MaxDuration; t++ {
		s := node.Step(1)
		out.EnergyJ += s.PNode
		if s.PNode > out.PeakW {
			out.PeakW = s.PNode
		}
		if s.PNode > cfg.CapWatts {
			out.OverCapSeconds++
		}
		freqSum += s.Freq
		var measured *float64
		if t%cfg.MissInterval == 0 {
			v := s.PNode
			measured = &v
			if v > cfg.CapWatts {
				out.OverCapReadings++
			}
		}
		est, err := src.Estimate(s.Counters.Slice(), measured)
		if err != nil {
			return Outcome{}, err
		}
		if t%cfg.ActInterval != 0 {
			continue
		}
		switch pol.Act(est, cfg.CapWatts) {
		case Lower:
			node.StepFrequency(-1)
		case Raise:
			node.StepFrequency(+1)
		}
	}
	out.CompletionSeconds = float64(t)
	if t > 0 {
		out.MeanFreqGHz = freqSum / float64(t)
	}
	return out, nil
}
