// Package workload models the benchmark programs the paper trains and
// evaluates on (§5.3: 96 benchmarks across SPEC CPU 2017, PARSEC, HPCC,
// Graph500, HPL-AI, SMG2000 and HPCG).
//
// A benchmark is a program of phases. Each phase fixes a compute/memory
// character — CPU utilisation, IPC, memory traffic intensity — plus a loop
// period producing the long-term periodic trends the paper attributes to
// program loops, and a spike process producing the unforeseen short-term
// fluctuations (§4.2). The platform simulator turns this state into power
// and performance-counter readings.
package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Phase is one execution phase of a benchmark.
type Phase struct {
	// Duration is the nominal phase length in seconds at maximum frequency.
	Duration float64
	// Util is the mean CPU utilisation in [0, 1].
	Util float64
	// IPC is the mean instructions-per-cycle of the phase.
	IPC float64
	// Mem is the memory-traffic intensity in [0, 1]; 1 saturates DRAM.
	Mem float64
	// LoopPeriod is the period in seconds of the phase's internal loop
	// oscillation (0 disables it).
	LoopPeriod float64
	// LoopAmp is the utilisation/memory swing of the loop oscillation.
	LoopAmp float64
	// SpikeRate is the expected number of short power spikes per second.
	SpikeRate float64
	// SpikeAmp is the extra utilisation during a spike.
	SpikeAmp float64
	// BranchFrac is the fraction of instructions that are branches.
	BranchFrac float64
	// CPUPowerFactor scales CPU dynamic power relative to what the PMCs
	// suggest (0 means 1.0). Real programs differ in per-instruction energy
	// — vector width, port pressure, data toggling — in ways the ten
	// Table 2 counters cannot see; this is why PMC-only power models
	// degrade on unseen programs (§6.1.1).
	CPUPowerFactor float64
	// MemPowerFactor likewise scales DRAM power per unit of traffic
	// (row-buffer locality, read/write mix).
	MemPowerFactor float64
}

// Benchmark is a named phase program belonging to a suite.
type Benchmark struct {
	Name   string
	Suite  string
	Phases []Phase
	// Repeat loops the phase program this many times (≥1).
	Repeat int
}

// TotalDuration returns the nominal duration of one full run in seconds at
// maximum frequency.
func (b Benchmark) TotalDuration() float64 {
	var d float64
	for _, p := range b.Phases {
		d += p.Duration
	}
	r := b.Repeat
	if r < 1 {
		r = 1
	}
	return d * float64(r)
}

// String implements fmt.Stringer.
func (b Benchmark) String() string { return fmt.Sprintf("%s/%s", b.Suite, b.Name) }

// State is the instantaneous demand a workload places on the node.
type State struct {
	// Util is the effective CPU utilisation in [0, 1] including loop
	// oscillation and spikes.
	Util float64
	// IPC is the current instructions-per-cycle.
	IPC float64
	// Mem is the current memory-traffic intensity in [0, 1].
	Mem float64
	// BranchFrac is the branch fraction of the instruction mix.
	BranchFrac float64
	// CPUPowerScale and MemPowerScale are the phase's PMC-invisible power
	// factors (1.0 when the phase leaves them unset).
	CPUPowerScale float64
	MemPowerScale float64
	// Done reports whether the program has finished.
	Done bool
}

// Instance is a running workload: a benchmark plus a position within its
// phase program and a private noise source. Advance progresses program time
// by wall time scaled with the node's speed factor so frequency capping
// stretches execution, which is how the Fig. 1 energy effect arises.
type Instance struct {
	bench    Benchmark
	rng      *rand.Rand
	progress float64 // program-time seconds completed (at nominal speed)
	total    float64
	spikeEnd float64 // wall-clock end of the active spike
	wall     float64 // wall-clock seconds elapsed
	curAmp   float64 // current spike amplitude
}

// NewInstance starts the benchmark with a deterministic noise stream.
func NewInstance(b Benchmark, seed int64) *Instance {
	if b.Repeat < 1 {
		b.Repeat = 1
	}
	return &Instance{
		bench: b,
		rng:   rand.New(rand.NewSource(seed ^ int64(hashName(b.String())))),
		total: b.TotalDuration(),
	}
}

func hashName(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// phaseAt locates the phase containing program-time t (wrapping repeats).
func (in *Instance) phaseAt(t float64) (Phase, float64) {
	var single float64
	for _, p := range in.bench.Phases {
		single += p.Duration
	}
	if single <= 0 {
		return Phase{}, 0
	}
	t = math.Mod(t, single)
	var acc float64
	for _, p := range in.bench.Phases {
		if t < acc+p.Duration {
			return p, t - acc
		}
		acc += p.Duration
	}
	last := in.bench.Phases[len(in.bench.Phases)-1]
	return last, last.Duration
}

// Advance moves the workload forward by dt wall-clock seconds executing at
// speed (1 = nominal frequency; capped frequency gives < 1 for
// compute-bound phases) and returns the state during that interval.
func (in *Instance) Advance(dt, speed float64) State {
	if in.progress >= in.total {
		return State{Done: true}
	}
	p, tin := in.phaseAt(in.progress)
	// Memory-bound work is insensitive to core frequency: blend the
	// progress rate between full speed and frequency-scaled speed.
	rate := p.Mem*1 + (1-p.Mem)*speed
	in.progress += dt * rate
	in.wall += dt

	util := p.Util
	mem := p.Mem
	if p.LoopPeriod > 0 {
		osc := math.Sin(2 * math.Pi * tin / p.LoopPeriod)
		util += p.LoopAmp * osc
		mem += 0.5 * p.LoopAmp * osc
	}
	// Spike process: Poisson arrivals, ~1–2 s duration.
	if in.wall >= in.spikeEnd && p.SpikeRate > 0 {
		if in.rng.Float64() < p.SpikeRate*dt {
			in.spikeEnd = in.wall + 1 + in.rng.Float64()
			in.curAmp = p.SpikeAmp * (0.5 + in.rng.Float64())
		}
	}
	if in.wall < in.spikeEnd {
		util += in.curAmp
		mem += 0.5 * in.curAmp
	}
	// Small white jitter so no two seconds are identical.
	util += in.rng.NormFloat64() * 0.015
	mem += in.rng.NormFloat64() * 0.01

	cpuScale := p.CPUPowerFactor
	if cpuScale == 0 {
		cpuScale = 1
	}
	memScale := p.MemPowerFactor
	if memScale == 0 {
		memScale = 1
	}
	return State{
		Util:          clamp01(util),
		IPC:           math.Max(0.1, p.IPC*(1+in.rng.NormFloat64()*0.03)),
		Mem:           clamp01(mem),
		BranchFrac:    p.BranchFrac,
		CPUPowerScale: cpuScale,
		MemPowerScale: memScale,
	}
}

// Done reports whether the program has completed.
func (in *Instance) Done() bool { return in.progress >= in.total }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
