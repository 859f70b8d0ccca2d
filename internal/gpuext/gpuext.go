// Package gpuext implements the paper's §6.4.4 extension: applying the
// HighRPM methodology to a peripheral device with its own performance
// counters. It models a discrete GPU — kernel-phase workloads, four
// device counters, a power process with PMC-invisible wander — and hands
// its traces to core.StaticTRR as sample sets, counters in place of PMCs.
//
// As §6.4.4 says, "the methodology for training and using the models would
// remain largely unchanged": the restoration is StaticTRR itself; only the
// counter model and the device simulator are new.
package gpuext

import (
	"fmt"
	"math"
	"math/rand"

	"highrpm/internal/dataset"
)

// Counter identifies one GPU performance-counter event.
type Counter int

// The GPU event set (an NVML/CUPTI-style minimum).
const (
	SMActiveCycles Counter = iota // cycles with at least one resident warp
	WarpsExecuted                 // retired warps
	DRAMReadBytes                 // device-memory read traffic
	DRAMWriteBytes                // device-memory write traffic
	numCounters
)

// NumCounters is the number of GPU counter events.
const NumCounters = int(numCounters)

var counterNames = [...]string{"SM_ACTIVE_CYCLES", "WARPS_EXECUTED", "DRAM_READ_BYTES", "DRAM_WRITE_BYTES"}

// String returns the counter mnemonic.
func (c Counter) String() string {
	if c < 0 || int(c) >= NumCounters {
		return fmt.Sprintf("GPU_COUNTER(%d)", int(c))
	}
	return counterNames[c]
}

// DeviceConfig describes a simulated GPU.
type DeviceConfig struct {
	Name     string
	SMs      int     // streaming multiprocessors
	ClockGHz float64 // SM clock
	MemBWGBs float64 // peak device-memory bandwidth
	// Idle/SMDyn/MemDyn: P = Idle + SMDyn·occupancy + MemDyn·bwUtil + wander.
	Idle   float64
	SMDyn  float64
	MemDyn float64
	// CtrNoise is the multiplicative counter read-noise sigma.
	CtrNoise float64
	// Wander is the stationary sigma (W) of the PMC-invisible OU power
	// wander (board VRM + thermal effects).
	Wander float64
}

// DefaultDevice models a mid-range HPC accelerator.
func DefaultDevice() DeviceConfig {
	return DeviceConfig{
		Name: "gpu0", SMs: 60, ClockGHz: 1.4, MemBWGBs: 700,
		Idle: 35, SMDyn: 160, MemDyn: 55,
		CtrNoise: 0.10, Wander: 8,
	}
}

// KernelPhase is one phase of a GPU workload.
type KernelPhase struct {
	Duration   float64 // seconds
	Occupancy  float64 // mean SM occupancy in [0, 1]
	BWUtil     float64 // mean memory-bandwidth utilisation in [0, 1]
	LoopPeriod float64 // kernel-relaunch oscillation period (0 disables)
	LoopAmp    float64
}

// Kernel is a named phase program. PowerFactor scales SM dynamic power in
// a way the counters cannot see — instruction mix and datapath toggling —
// mirroring the per-benchmark power character of the CPU workloads; it is
// what defeats counter-only power models on unseen kernels.
type Kernel struct {
	Name        string
	Phases      []KernelPhase
	Repeat      int
	PowerFactor float64 // 0 means 1.0
}

// Kernels returns the GPU workload suite.
func Kernels() []Kernel {
	return []Kernel{
		{Name: "gemm", Repeat: 4, PowerFactor: 1.20, Phases: []KernelPhase{
			{Duration: 40, Occupancy: 0.92, BWUtil: 0.35, LoopPeriod: 8, LoopAmp: 0.04},
		}},
		{Name: "stencil", Repeat: 4, PowerFactor: 0.85, Phases: []KernelPhase{
			{Duration: 30, Occupancy: 0.65, BWUtil: 0.80, LoopPeriod: 6, LoopAmp: 0.08},
		}},
		{Name: "reduction", Repeat: 6, PowerFactor: 1.00, Phases: []KernelPhase{
			{Duration: 12, Occupancy: 0.85, BWUtil: 0.55, LoopPeriod: 3, LoopAmp: 0.10},
			{Duration: 4, Occupancy: 0.20, BWUtil: 0.10},
		}},
		{Name: "graph", Repeat: 5, PowerFactor: 0.70, Phases: []KernelPhase{
			{Duration: 20, Occupancy: 0.40, BWUtil: 0.70, LoopPeriod: 5, LoopAmp: 0.08},
			{Duration: 6, Occupancy: 0.75, BWUtil: 0.30},
		}},
	}
}

// Sample is one second of GPU ground truth.
type Sample struct {
	Time     float64
	Power    float64 // watts
	Counters [NumCounters]float64
}

// Trace is a completed device run at 1 Sa/s.
type Trace struct {
	Kernel  string
	Config  DeviceConfig
	Samples []Sample
}

// Set adapts the trace to the sample set the core models take: the
// counters are the PMC vector and the device power is the node power.
func (t *Trace) Set() *dataset.Set {
	out := &dataset.Set{}
	for _, s := range t.Samples {
		out.Samples = append(out.Samples, dataset.Sample{Time: s.Time, PMC: append([]float64(nil), s.Counters[:]...), PNode: s.Power})
		out.Suites = append(out.Suites, "GPU")
		out.Benchmarks = append(out.Benchmarks, t.Kernel)
	}
	return out
}

// Device simulates one GPU.
type Device struct {
	cfg DeviceConfig
	rng *rand.Rand
	ou  float64
}

// NewDevice creates a device simulation.
func NewDevice(cfg DeviceConfig, seed int64) (*Device, error) {
	if cfg.SMs <= 0 || cfg.SMDyn <= 0 {
		return nil, fmt.Errorf("gpuext: invalid device config %+v", cfg)
	}
	return &Device{cfg: cfg, rng: rand.New(rand.NewSource(seed))}, nil
}

// Run simulates the kernel for dur seconds at 1 Sa/s, looping as needed.
func (d *Device) Run(k Kernel, dur float64) *Trace {
	if k.Repeat < 1 {
		k.Repeat = 1
	}
	var single float64
	for _, p := range k.Phases {
		single += p.Duration
	}
	pf := k.PowerFactor
	if pf == 0 {
		pf = 1
	}
	tr := &Trace{Kernel: k.Name, Config: d.cfg}
	const wtau = 15.0
	for t := 0.0; t < dur; t++ {
		// Locate the phase at kernel-local time.
		tk := math.Mod(t, single)
		var acc float64
		ph := k.Phases[len(k.Phases)-1]
		tin := ph.Duration
		for _, p := range k.Phases {
			if tk < acc+p.Duration {
				ph = p
				tin = tk - acc
				break
			}
			acc += p.Duration
		}
		occ := ph.Occupancy
		bw := ph.BWUtil
		if ph.LoopPeriod > 0 {
			osc := math.Sin(2 * math.Pi * tin / ph.LoopPeriod)
			occ += ph.LoopAmp * osc
			bw += 0.5 * ph.LoopAmp * osc
		}
		occ = clamp01(occ + d.rng.NormFloat64()*0.02)
		bw = clamp01(bw + d.rng.NormFloat64()*0.02)

		d.ou += -d.ou/wtau + d.cfg.Wander*math.Sqrt(2/wtau)*d.rng.NormFloat64()
		power := d.cfg.Idle + d.cfg.SMDyn*occ*pf + d.cfg.MemDyn*bw + d.ou

		noisy := func(v float64) float64 {
			v *= 1 + d.rng.NormFloat64()*d.cfg.CtrNoise
			if v < 0 {
				return 0
			}
			return v
		}
		var s Sample
		s.Time = t
		s.Power = power
		cycles := float64(d.cfg.SMs) * d.cfg.ClockGHz * 1e9 * occ
		s.Counters[SMActiveCycles] = noisy(cycles)
		s.Counters[WarpsExecuted] = noisy(cycles * 0.8 / 32)
		s.Counters[DRAMReadBytes] = noisy(bw * d.cfg.MemBWGBs * 0.65e9)
		s.Counters[DRAMWriteBytes] = noisy(bw * d.cfg.MemBWGBs * 0.35e9)
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

// RunMix runs every kernel for perDur seconds back to back on the device,
// producing one contiguous training trace that covers the device's full
// power band — the GPU analogue of the multi-suite initial sample set.
func (d *Device) RunMix(kernels []Kernel, perDur float64) *Trace {
	out := &Trace{Kernel: "mix", Config: d.cfg}
	var offset float64
	for _, k := range kernels {
		tr := d.Run(k, perDur)
		for _, s := range tr.Samples {
			s.Time += offset
			out.Samples = append(out.Samples, s)
		}
		offset += perDur
	}
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
