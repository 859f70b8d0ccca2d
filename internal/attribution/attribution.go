// Package attribution splits restored node power among the jobs sharing a
// node and accounts their energy — the scheduling/accounting use case the
// paper's introduction motivates ("power readings help the system quickly
// respond ... important for efficient workload scheduling"). It composes
// with HighRPM: the framework restores P_CPU/P_MEM at 1 Sa/s, and this
// package distributes those watts to jobs by their counter shares, the
// same attribution model production tools (per-cgroup/per-process power
// meters) use.
package attribution

import (
	"fmt"
	"sort"
)

// JobActivity is one job's per-second counter aggregate on a node.
type JobActivity struct {
	JobID string
	// Cycles is the job's active CPU cycles this second (summed over its
	// cores/threads).
	Cycles float64
	// MemAccesses is the job's main-memory access count this second.
	MemAccesses float64
	// CoreShare is the fraction of the node's cores allocated to the job
	// (used to split idle power); shares should sum to ≤ 1.
	CoreShare float64
}

// JobPower is one job's attributed power for a second.
type JobPower struct {
	JobID string
	CPUW  float64
	MEMW  float64
}

// TotalW returns the job's total attributed power.
func (j JobPower) TotalW() float64 { return j.CPUW + j.MEMW }

// Config sets the idle-power split.
type Config struct {
	// CPUIdleW and MEMIdleW are the node's idle power components; they are
	// split by CoreShare (CPU) and evenly (MEM) across jobs. Values of the
	// ARM platform by default.
	CPUIdleW float64
	MEMIdleW float64
}

// DefaultConfig matches the simulated ARM node.
func DefaultConfig() Config { return Config{CPUIdleW: 12, MEMIdleW: 8} }

// Attribute splits one second's component power among jobs:
//
//   - dynamic CPU power (above idle) proportionally to active cycles,
//   - dynamic memory power proportionally to memory accesses,
//   - idle CPU power by core share, idle memory power evenly.
//
// Jobs with zero activity still carry their idle share — holding cores
// costs energy whether or not they retire instructions.
func Attribute(pcpuW, pmemW float64, jobs []JobActivity, cfg Config) ([]JobPower, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("attribution: no jobs")
	}
	var totCycles, totMem, totShare float64
	for _, j := range jobs {
		if j.Cycles < 0 || j.MemAccesses < 0 || j.CoreShare < 0 {
			return nil, fmt.Errorf("attribution: job %s has negative activity", j.JobID)
		}
		totCycles += j.Cycles
		totMem += j.MemAccesses
		totShare += j.CoreShare
	}
	if totShare > 1+1e-9 {
		return nil, fmt.Errorf("attribution: core shares sum to %.3f > 1", totShare)
	}
	dynCPU := pcpuW - cfg.CPUIdleW
	if dynCPU < 0 {
		dynCPU = 0
	}
	dynMEM := pmemW - cfg.MEMIdleW
	if dynMEM < 0 {
		dynMEM = 0
	}
	idleCPU := pcpuW - dynCPU
	idleMEM := pmemW - dynMEM

	out := make([]JobPower, len(jobs))
	for i, j := range jobs {
		p := JobPower{JobID: j.JobID}
		// Idle split.
		if totShare > 0 {
			p.CPUW += idleCPU * j.CoreShare / totShare
		} else {
			p.CPUW += idleCPU / float64(len(jobs))
		}
		p.MEMW += idleMEM / float64(len(jobs))
		// Dynamic split.
		if totCycles > 0 {
			p.CPUW += dynCPU * j.Cycles / totCycles
		} else if totShare > 0 {
			p.CPUW += dynCPU * j.CoreShare / totShare
		}
		if totMem > 0 {
			p.MEMW += dynMEM * j.MemAccesses / totMem
		} else {
			p.MEMW += dynMEM / float64(len(jobs))
		}
		out[i] = p
	}
	return out, nil
}

// Ledger accumulates per-job energy over time.
type Ledger struct {
	energyJ map[string]float64
	seconds map[string]float64
}

// NewLedger returns an empty energy ledger.
func NewLedger() *Ledger {
	return &Ledger{energyJ: map[string]float64{}, seconds: map[string]float64{}}
}

// Add books one second of attributed power.
func (l *Ledger) Add(powers []JobPower) {
	for _, p := range powers {
		l.energyJ[p.JobID] += p.TotalW()
		l.seconds[p.JobID]++
	}
}

// Entry is one job's accumulated accounting record.
type Entry struct {
	JobID   string
	EnergyJ float64
	Seconds float64
	MeanW   float64
}

// Entries returns the ledger sorted by descending energy.
func (l *Ledger) Entries() []Entry {
	out := make([]Entry, 0, len(l.energyJ))
	for id, e := range l.energyJ {
		ent := Entry{JobID: id, EnergyJ: e, Seconds: l.seconds[id]}
		if ent.Seconds > 0 {
			ent.MeanW = e / ent.Seconds
		}
		out = append(out, ent)
	}
	sort.Slice(out, func(i, j int) bool {
		//lint:ignore floateq exact tie-break: only bit-identical energies fall through to the JobID key
		if out[i].EnergyJ != out[j].EnergyJ {
			return out[i].EnergyJ > out[j].EnergyJ
		}
		return out[i].JobID < out[j].JobID
	})
	return out
}
