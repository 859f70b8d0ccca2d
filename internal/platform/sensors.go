package platform

import (
	"fmt"
	"math/rand"
)

// Reading is one sensor observation.
type Reading struct {
	Time  float64 // seconds; for IPMI this is when the reading became visible
	Power float64 // watts
}

// IPMISensor models the general integrated measurement path of §2.2 and
// §5.2: the BMC reads the power chip over IPMI, delivering node-level power
// at a low rate (≤ 0.1 Sa/s) with a read-out delay and quantisation.
type IPMISensor struct {
	// Interval is the seconds between readings (the paper's miss_interval;
	// 10 s ⇒ 0.1 Sa/s).
	Interval float64
	// Latency is the read-out delay before a reading becomes visible.
	Latency float64
	// Error is the gaussian sigma of the sensor (vendor tools: ~1 W).
	Error float64
	// Quantum rounds readings to this granularity (0 disables).
	Quantum float64
	// Jitter adds uniform ±Jitter seconds to each reading time, modelling
	// the network-congestion effect of §6.4.6 (0 disables).
	Jitter float64

	rng *rand.Rand
}

// NewIPMISensor returns the paper's default sensor: one reading every
// interval seconds, 0.5 s latency, 1 W error, 1 W quantisation.
func NewIPMISensor(interval float64, seed int64) *IPMISensor {
	return &IPMISensor{
		Interval: interval, Latency: 0.5, Error: 1.0, Quantum: 1.0,
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Readings samples the trace's node power at the sensor cadence. The first
// reading is taken at t = 0.
func (s *IPMISensor) Readings(tr *Trace) []Reading {
	if s.Interval <= 0 {
		panic("platform: IPMISensor.Interval must be positive")
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(1))
	}
	var out []Reading
	for t := 0.0; t < tr.Duration(); t += s.Interval {
		at := t
		if s.Jitter > 0 {
			at += (s.rng.Float64()*2 - 1) * s.Jitter
			if at < 0 {
				at = 0
			}
		}
		idx := int(at / tr.Dt)
		if idx >= len(tr.Samples) {
			break
		}
		p := tr.Samples[idx].PNode + s.rng.NormFloat64()*s.Error
		if s.Quantum > 0 {
			p = float64(int(p/s.Quantum+0.5)) * s.Quantum
		}
		out = append(out, Reading{Time: at + s.Latency, Power: p})
	}
	return out
}

// Rate returns the sensor sampling rate in samples per second.
func (s *IPMISensor) Rate() float64 { return 1 / s.Interval }

// String describes the sensor.
func (s *IPMISensor) String() string {
	return fmt.Sprintf("ipmi(%.2gSa/s, ±%.1fW)", s.Rate(), s.Error)
}
