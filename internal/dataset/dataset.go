// Package dataset turns platform traces into the sample matrices the models
// consume, following the paper's methodology (§5.3): 1 Sa/s samples of PMC
// features with node/CPU/memory power labels, the seven seen/unseen
// train-test combinations of Table 3, and the sliding-window construction
// DynamicTRR trains on (§4.2.2, Fig. 4).
package dataset

import (
	"fmt"
	"math/rand"

	"highrpm/internal/mat"
	"highrpm/internal/platform"
	"highrpm/internal/pmu"
	"highrpm/internal/workload"
)

// Sample is one 1 Sa/s observation.
type Sample struct {
	Time  float64
	PMC   []float64 // the ten Table 2 event rates
	PNode float64   // ground-truth node power (direct probe / IPMI when measured)
	PCPU  float64   // ground-truth CPU power (direct probe)
	PMEM  float64   // ground-truth memory power (direct probe)
}

// Set is an ordered collection of samples from one or more programs.
type Set struct {
	Samples []Sample
	// Suites tags, per sample, the suite the sample came from.
	Suites []string
	// Benchmarks tags, per sample, the program the sample came from.
	Benchmarks []string
}

// Len returns the number of samples.
func (s *Set) Len() int { return len(s.Samples) }

// Append adds all samples of other, keeping order. Timestamps are rebased
// so the combined set stays strictly increasing in time (traces all start
// at t = 0; a concatenated log must not repeat timestamps or the spline
// knots collide).
func (s *Set) Append(other *Set) {
	var offset float64
	if len(s.Samples) > 0 && len(other.Samples) > 0 {
		offset = s.Samples[len(s.Samples)-1].Time + 1 - other.Samples[0].Time
	}
	for _, sm := range other.Samples {
		sm.Time += offset
		s.Samples = append(s.Samples, sm)
	}
	s.Suites = append(s.Suites, other.Suites...)
	s.Benchmarks = append(s.Benchmarks, other.Benchmarks...)
}

// Slice returns the subset [lo, hi) as a view-backed copy of headers. The
// view has no spare capacity, so appending to it never writes into s.
func (s *Set) Slice(lo, hi int) *Set {
	return &Set{
		Samples:    s.Samples[lo:hi:hi],
		Suites:     s.Suites[lo:hi:hi],
		Benchmarks: s.Benchmarks[lo:hi:hi],
	}
}

// FromTrace converts a trace into 1 Sa/s samples with direct-probe power
// labels (probe noise applied by the caller's probe if desired; here the
// ground truth is used directly and a probe can be layered on top).
func FromTrace(tr *platform.Trace, suite, bench string) *Set {
	step := int(1 / tr.Dt)
	if step < 1 {
		step = 1
	}
	out := &Set{}
	for i := 0; i < len(tr.Samples); i += step {
		sm := tr.Samples[i]
		out.Samples = append(out.Samples, Sample{
			Time:  sm.Time,
			PMC:   sm.Counters.Slice(),
			PNode: sm.PNode,
			PCPU:  sm.PCPU,
			PMEM:  sm.PMEM,
		})
		out.Suites = append(out.Suites, suite)
		out.Benchmarks = append(out.Benchmarks, bench)
	}
	return out
}

// pmcWidth is the length of the samples' PMC vectors: pmu.NumEvents on a
// CPU set, the device's counter count on a peripheral's.
func (s *Set) pmcWidth() int {
	if len(s.Samples) == 0 {
		return 0
	}
	return len(s.Samples[0].PMC)
}

// PMCMatrix assembles the PMC feature matrix (one row per sample).
func (s *Set) PMCMatrix() *mat.Dense {
	x := mat.NewDense(len(s.Samples), s.pmcWidth())
	for i, sm := range s.Samples {
		copy(x.Row(i), sm.PMC)
	}
	return x
}

// PMCWithNode assembles features [PMC..., PNode] — the SRR input layout
// (§4.3: the input layer is P_Node from the TRR model plus the PMCs).
// nodePower supplies the node-power feature per row (measured or restored).
func (s *Set) PMCWithNode(nodePower []float64) *mat.Dense {
	if len(nodePower) != len(s.Samples) {
		panic(fmt.Sprintf("dataset: %d node-power values for %d samples", len(nodePower), len(s.Samples)))
	}
	w := s.pmcWidth()
	x := mat.NewDense(len(s.Samples), w+1)
	for i, sm := range s.Samples {
		row := x.Row(i)
		copy(row, sm.PMC)
		row[w] = nodePower[i]
	}
	return x
}

// NodePower returns the node-power label vector.
func (s *Set) NodePower() []float64 {
	out := make([]float64, len(s.Samples))
	for i, sm := range s.Samples {
		out[i] = sm.PNode
	}
	return out
}

// CPUPower returns the CPU-power label vector.
func (s *Set) CPUPower() []float64 {
	out := make([]float64, len(s.Samples))
	for i, sm := range s.Samples {
		out[i] = sm.PCPU
	}
	return out
}

// MemPower returns the memory-power label vector.
func (s *Set) MemPower() []float64 {
	out := make([]float64, len(s.Samples))
	for i, sm := range s.Samples {
		out[i] = sm.PMEM
	}
	return out
}

// Times returns the sample timestamps.
func (s *Set) Times() []float64 {
	out := make([]float64, len(s.Samples))
	for i, sm := range s.Samples {
		out[i] = sm.Time
	}
	return out
}

// MeasuredIndices returns the sample indices at which an integrated
// measurement is available given the miss interval in samples (e.g. 10 for
// a 10 s miss_interval at 1 Sa/s). Index 0 is always measured.
func (s *Set) MeasuredIndices(missInterval int) []int {
	if missInterval < 1 {
		missInterval = 1
	}
	var idx []int
	for i := 0; i < len(s.Samples); i += missInterval {
		idx = append(idx, i)
	}
	return idx
}

// GenerateConfig controls trace collection for the evaluation datasets.
type GenerateConfig struct {
	// Platform is the node model (defaults to platform.ARMConfig()).
	Platform platform.Config
	// SamplesPerSuite is the number of 1 Sa/s samples collected per suite
	// (the paper compiles 1000 per set).
	SamplesPerSuite int
	// Seed drives all simulation noise.
	Seed int64
	// Frequency pins the DVFS level in GHz (0 = maximum).
	Frequency float64
}

// DefaultGenerateConfig mirrors §5.3 with the paper's 1000 samples/suite.
func DefaultGenerateConfig() GenerateConfig {
	return GenerateConfig{Platform: platform.ARMConfig(), SamplesPerSuite: 1000, Seed: 1}
}

// GenerateSuite simulates every member of the named suite, collecting an
// equal share of SamplesPerSuite samples across members ("we compile 1000
// samples from each set in order").
func GenerateSuite(cfg GenerateConfig, suite string) (*Set, error) {
	members := workload.BySuite()[suite]
	if len(members) == 0 {
		return nil, fmt.Errorf("dataset: unknown suite %q", suite)
	}
	if cfg.SamplesPerSuite <= 0 {
		cfg.SamplesPerSuite = 1000
	}
	if cfg.Platform.Name == "" {
		cfg.Platform = platform.ARMConfig()
	}
	// Every program runs for at least a minute (§5.3: "every benchmark
	// operates for 60 seconds to an hour") so the spline always sees
	// several IM readings per program; members are taken in order until
	// the suite's sample budget is filled, cycling if necessary.
	per := cfg.SamplesPerSuite / len(members)
	if per < 60 {
		per = 60
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(len(suite))*7919))
	out := &Set{}
	for i := 0; out.Len() < cfg.SamplesPerSuite; i++ {
		b := members[i%len(members)]
		node, err := platform.NewNode(cfg.Platform, rng.Int63())
		if err != nil {
			return nil, err
		}
		if cfg.Frequency > 0 {
			if err := node.SetFrequency(cfg.Frequency); err != nil {
				return nil, err
			}
		}
		dur := per
		if remaining := cfg.SamplesPerSuite - out.Len(); dur > remaining {
			dur = remaining
		}
		tr := node.RunFor(b, float64(dur), 1)
		out.Append(FromTrace(tr, suite, b.Name))
	}
	return out.Slice(0, cfg.SamplesPerSuite), nil
}

// Combo is one Table 3 train/test combination.
type Combo struct {
	// TestSuite is the held-out suite.
	TestSuite string
	// TrainSuites are the remaining six suites.
	TrainSuites []string
}

// Combos returns the seven Table 3 combinations, one per held-out suite.
func Combos() []Combo {
	suites := workload.SuiteNames()
	out := make([]Combo, 0, len(suites))
	for _, test := range suites {
		var train []string
		for _, s := range suites {
			if s != test {
				train = append(train, s)
			}
		}
		out = append(out, Combo{TestSuite: test, TrainSuites: train})
	}
	return out
}

// Split is a materialised train/test dataset pair.
type Split struct {
	Train *Set
	Test  *Set
	// Seen reports whether samples of the target program family appear in
	// the training set (§5.3's two construction methods).
	Seen bool
	// Combo records which Table 3 row produced the split.
	Combo Combo
}

// BuildSplit materialises one combination. For unseen splits the training
// set is the six training suites (6×SamplesPerSuite) and the test set the
// held-out suite. For seen splits the six training suites contribute in
// full and the target suite is cut 30/70 into train/test, matching the
// paper's 6300-sample training and 700-sample test sets at 1000 samples
// per suite (§5.3).
func BuildSplit(cfg GenerateConfig, combo Combo, seen bool) (*Split, error) {
	persuite := map[string]*Set{}
	for _, s := range append(append([]string{}, combo.TrainSuites...), combo.TestSuite) {
		set, err := GenerateSuite(cfg, s)
		if err != nil {
			return nil, err
		}
		persuite[s] = set
	}
	sp := &Split{Seen: seen, Combo: combo, Train: &Set{}, Test: &Set{}}
	if !seen {
		for _, s := range combo.TrainSuites {
			sp.Train.Append(persuite[s])
		}
		sp.Test = persuite[combo.TestSuite]
		return sp, nil
	}
	for _, s := range workload.SuiteNames() {
		set, ok := persuite[s]
		if !ok {
			continue
		}
		cut := set.Len() * 3 / 10
		if s == combo.TestSuite {
			sp.Train.Append(set.Slice(0, cut))
			sp.Test.Append(set.Slice(cut, set.Len()))
		} else {
			sp.Train.Append(set)
		}
	}
	return sp, nil
}

// Window is one DynamicTRR training sample s′: miss_interval consecutive
// steps of features with the per-step node power as labels (Fig. 4).
type Window struct {
	Features [][]float64 // miss_interval × (m+1): PMCs plus previous node power
	Labels   []float64   // miss_interval true node-power values
}

// BuildWindows constructs the sliding-window dataset D_DynamicTRR from an
// ordered set. Each step's feature vector is its PMCs plus P′_Node at the
// previous moment (§4.2.2); prevNode supplies that series — typically the
// StaticTRR/spline estimate, falling back to the true series for offline
// training. The stride is 1, yielding n−miss_interval+1 windows.
func BuildWindows(s *Set, prevNode []float64, missInterval int) []Window {
	if missInterval < 2 {
		missInterval = 2
	}
	if len(prevNode) != s.Len() {
		panic(fmt.Sprintf("dataset: %d prevNode values for %d samples", len(prevNode), s.Len()))
	}
	n := s.Len()
	if n < missInterval {
		return nil
	}
	windows := make([]Window, 0, n-missInterval+1)
	for start := 0; start+missInterval <= n; start++ {
		w := Window{
			Features: make([][]float64, missInterval),
			Labels:   make([]float64, missInterval),
		}
		for j := 0; j < missInterval; j++ {
			i := start + j
			f := make([]float64, pmu.NumEvents+1)
			copy(f, s.Samples[i].PMC)
			if i > 0 {
				f[pmu.NumEvents] = prevNode[i-1]
			} else {
				f[pmu.NumEvents] = prevNode[0]
			}
			w.Features[j] = f
			w.Labels[j] = s.Samples[i].PNode
		}
		windows = append(windows, w)
	}
	return windows
}

// WindowsToSeqs converts windows into the neural package's FitSeq inputs.
func WindowsToSeqs(ws []Window) (seqs [][][]float64, targets [][]float64) {
	for _, w := range ws {
		seqs = append(seqs, w.Features)
		targets = append(targets, w.Labels)
	}
	return seqs, targets
}

// SubsampleWindows keeps at most n windows, evenly spaced, to bound RNN
// training cost on the single-core evaluation machine.
func SubsampleWindows(ws []Window, n int) []Window {
	if n <= 0 || len(ws) <= n {
		return ws
	}
	out := make([]Window, 0, n)
	stride := float64(len(ws)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, ws[int(float64(i)*stride)])
	}
	return out
}
