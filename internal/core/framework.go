package core

import (
	"fmt"
	"math/rand"
	"time"

	"highrpm/internal/dataset"
	"highrpm/internal/stats"
)

// Options configures a full HighRPM instance.
type Options struct {
	Static  StaticTRROptions
	Dynamic DynamicTRROptions
	SRR     SRROptions
	// ActiveLearning enables the §4.1 second stage: restored samples join
	// the initial samples, a sampler draws reinforcement samples, and the
	// models are fine-tuned on them.
	ActiveLearning bool
	Seed           int64
}

// The active learning stage's fixed sizes.
const (
	// reinforceFraction is the share of the combined sample set drawn as
	// reinforcement samples.
	reinforceFraction = 0.3
	// srrFineTuneEpochs bounds SRR's fine-tuning cost.
	srrFineTuneEpochs = 5
)

// DefaultOptions returns the paper's evaluation configuration
// (miss_interval 10 s, active learning on).
func DefaultOptions() Options {
	return Options{
		Static:         DefaultStaticTRROptions(),
		Dynamic:        DefaultDynamicTRROptions(),
		SRR:            DefaultSRROptions(),
		ActiveLearning: true,
		Seed:           1,
	}
}

// SetMissInterval adjusts every sub-model's miss interval together.
func (o *Options) SetMissInterval(samples int) {
	o.Static.MissInterval = samples
	o.Dynamic.MissInterval = samples
}

// SetWorkers does nothing: training is one serial path whose result depends
// on seed and data alone.
//
// Deprecated: kept only because bench/gen.go, frozen with the rest of bench/,
// still calls SetWorkers(1); the benchmark PR that drops that call deletes
// this method with it.
func (o *Options) SetWorkers(int) {}

// HighRPM bundles the trained TRR and SRR models (Fig. 3).
type HighRPM struct {
	Opts    Options
	Static  *StaticTRR
	Dynamic *DynamicTRR
	SRR     *SRR
	// TrainStats records wall-clock training cost (§6.4.5 reports < 10 min
	// offline and < 2 s fine-tune on the paper's machine).
	TrainStats TrainStats
}

// TrainStats records the cost of the learning stages.
type TrainStats struct {
	InitialDuration time.Duration
	ActiveDuration  time.Duration
	InitialSamples  int
	ReinforceCount  int
}

// Train runs the initial learning stage — fitting StaticTRR, DynamicTRR and
// SRR on the labeled initial samples — followed, when enabled, by the
// active learning stage of §4.1.
func Train(initial *dataset.Set, opts Options) (*HighRPM, error) {
	if initial.Len() == 0 {
		return nil, fmt.Errorf("core: empty initial sample set")
	}
	start := wallClock()
	h := &HighRPM{Opts: opts}

	st, err := FitStaticTRR(initial, opts.Static)
	if err != nil {
		return nil, err
	}
	h.Static = st

	dyn, err := FitDynamicTRR(initial, opts.Dynamic)
	if err != nil {
		return nil, err
	}
	h.Dynamic = dyn

	srr, err := FitSRR(initial, nil, opts.SRR)
	if err != nil {
		return nil, err
	}
	h.SRR = srr
	h.TrainStats.InitialDuration = wallClock().Sub(start)
	h.TrainStats.InitialSamples = initial.Len()

	if opts.ActiveLearning {
		start = wallClock()
		if err := h.activeLearn(initial); err != nil {
			return nil, err
		}
		h.TrainStats.ActiveDuration = wallClock().Sub(start)
	}
	return h, nil
}

// wallClock is the single wall-clock read in this package. TrainStats
// reports real training cost (§6.4.5) and deliberately never feeds an
// estimate, so it is the one justified exception to the determinism rule.
func wallClock() time.Time {
	//lint:ignore determinism TrainStats wall-clock cost reporting; never feeds an estimate
	return time.Now()
}

// activeLearn implements the §4.1 second stage. The initial samples are
// re-labeled with StaticTRR's restored node power — the feature the SRR
// model will actually see in deployment — combined with the original
// samples, and a random sampler draws reinforcement samples to fine-tune
// SRR. DynamicTRR is refreshed on windows built from the restored series.
func (h *HighRPM) activeLearn(initial *dataset.Set) error {
	idx := initial.MeasuredIndices(h.Opts.Static.MissInterval)
	restored, err := h.Static.Restore(initial, idx, nil)
	if err != nil {
		return fmt.Errorf("core: active learning restore: %w", err)
	}
	// Reinforcement sampler over the *combined* pool (§4.1: "the initial
	// and restored samples are combined to create a new sample set"): each
	// draw picks a sample index plus whether its node feature is the
	// original measurement or the restored estimate, so fine-tuning sees
	// both the clean and the deployment-realistic feature distribution.
	rng := rand.New(rand.NewSource(h.Opts.Seed*2654435761 + 97))
	n := initial.Len()
	count := int(reinforceFraction * float64(n))
	if count < 1 {
		count = 1
	}
	re := &dataset.Set{}
	reNode := make([]float64, 0, count)
	for k := 0; k < count; k++ {
		i := rng.Intn(n)
		re.Samples = append(re.Samples, initial.Samples[i])
		re.Suites = append(re.Suites, initial.Suites[i])
		re.Benchmarks = append(re.Benchmarks, initial.Benchmarks[i])
		if rng.Intn(2) == 0 {
			reNode = append(reNode, initial.Samples[i].PNode)
		} else {
			reNode = append(reNode, restored[i])
		}
	}
	h.TrainStats.ReinforceCount = count
	if err := h.SRR.FineTune(re, reNode, srrFineTuneEpochs); err != nil {
		return fmt.Errorf("core: active learning SRR fine-tune: %w", err)
	}
	// Refresh DynamicTRR with windows whose previous-node feature is the
	// restored series (what it sees online).
	windows := dataset.BuildWindows(initial, restored, h.Opts.Dynamic.MissInterval)
	windows = dataset.SubsampleWindows(windows, count/2+1)
	seqs, targets := dataset.WindowsToSeqs(windows)
	if len(seqs) > 0 {
		if err := h.Dynamic.Net.FineTune(seqs, targets); err != nil {
			return fmt.Errorf("core: active learning DynamicTRR fine-tune: %w", err)
		}
	}
	return nil
}

// RestoreMode selects the temporal restoration model.
type RestoreMode int

// Temporal restoration modes.
const (
	// ModeStatic uses StaticTRR — offline analysis of complete logs.
	ModeStatic RestoreMode = iota
	// ModeDynamic uses DynamicTRR — online monitoring with look-ahead-free
	// prediction.
	ModeDynamic
)

// RestoreTemporal estimates the 1 Sa/s node-power series of a set from IM
// readings at measuredIdx (vals nil = perfect sensor at those indices).
// Like every path that serves h, it only reads the model: ModeDynamic
// replays the set through the served stream with online fine-tuning off,
// which is Monitor.Push over the same seconds.
func (h *HighRPM) RestoreTemporal(set *dataset.Set, measuredIdx []int, vals []float64, mode RestoreMode) ([]float64, error) {
	switch mode {
	case ModeStatic:
		return h.Static.Restore(set, measuredIdx, vals)
	case ModeDynamic:
		served := *h.Dynamic
		served.Opts.FineTuneOnline = false
		return served.Run(set, measuredIdx, vals)
	default:
		return nil, fmt.Errorf("core: unknown restore mode %d", mode)
	}
}

// RestoreSpatial splits a node-power series into component power using the
// SRR model. nodePower is typically the output of RestoreTemporal.
func (h *HighRPM) RestoreSpatial(set *dataset.Set, nodePower []float64) (pcpu, pmem []float64) {
	return h.SRR.PredictSet(set, nodePower)
}

// Restore runs the full pipeline — temporal then spatial restoration — and
// returns node, CPU and memory series.
func (h *HighRPM) Restore(set *dataset.Set, measuredIdx []int, vals []float64, mode RestoreMode) (node, pcpu, pmem []float64, err error) {
	node, err = h.RestoreTemporal(set, measuredIdx, vals, mode)
	if err != nil {
		return nil, nil, nil, err
	}
	pcpu, pmem = h.RestoreSpatial(set, node)
	return node, pcpu, pmem, nil
}

// Report bundles full-pipeline accuracy metrics.
type Report struct {
	Node stats.Metrics
	CPU  stats.Metrics
	Mem  stats.Metrics
}

// Evaluate runs the full pipeline against ground truth with a perfect
// sensor at the configured miss interval.
func (h *HighRPM) Evaluate(set *dataset.Set, mode RestoreMode) (Report, error) {
	idx := set.MeasuredIndices(h.Opts.Static.MissInterval)
	node, pcpu, pmem, err := h.Restore(set, idx, nil, mode)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Node: stats.Evaluate(set.NodePower(), node),
		CPU:  stats.Evaluate(set.CPUPower(), pcpu),
		Mem:  stats.Evaluate(set.MemPower(), pmem),
	}, nil
}
