// Package experiments regenerates every table and figure of the paper's
// motivation and evaluation sections (Figs. 1, 2, 7, 8, 9 and Tables 5–9)
// plus the §6.4 discussion artifacts, on the simulated platforms. Every
// accuracy table is a list of methods scored on a list of trials (trial.go,
// compare.go); the registry in runner.go is the one list of experiments,
// which cmd/highrpm-bench and bench_test.go drive.
//
// Absolute error values depend on the synthetic noise model; the assertions
// the reproduction targets are the paper's *shape* claims (who wins, rough
// factors, crossovers), stated in each table's "shape target" note.
package experiments

import (
	"sync"

	"highrpm/internal/core"
	"highrpm/internal/dataset"
	"highrpm/internal/platform"
)

// Scale selects how much compute an experiment run spends.
type Scale int

// Experiment scales.
const (
	// ScaleBench is sized for testing.B iterations (seconds per artifact).
	ScaleBench Scale = iota
	// ScaleQuick is the CLI default (a few minutes for the full set).
	ScaleQuick
	// ScaleFull is the paper-faithful configuration (1000 samples/suite,
	// all seven Table 3 combinations).
	ScaleFull
)

// Config parameterises an experiment run.
type Config struct {
	// Platform is the simulated node (defaults to the ARM platform; the
	// Table 9 experiment overrides it with the x86 model).
	Platform platform.Config
	// SamplesPerSuite is the per-suite 1 Sa/s sample budget (§5.3: 1000).
	SamplesPerSuite int
	// MaxCombos bounds how many of the seven Table 3 combinations run
	// (0 = all seven).
	MaxCombos int
	// MissInterval is the IM reading gap in samples (paper default 10).
	MissInterval int
	// RNNEpochs and RNNMaxWindows bound recurrent-model training cost.
	RNNEpochs     int
	RNNMaxWindows int
	// UnseenOnly restricts evaluation to the unseen-application splits
	// (Table 9 reports only unseen results).
	UnseenOnly bool
	// Seed drives all simulation and model randomness.
	Seed int64
}

// seenVariants lists the split kinds an experiment evaluates.
func (c Config) seenVariants() []bool {
	if c.UnseenOnly {
		return []bool{false}
	}
	return []bool{true, false}
}

// NewConfig returns the configuration for the given scale.
func NewConfig(s Scale) Config {
	cfg := Config{
		Platform:     platform.ARMConfig(),
		MissInterval: 10,
		Seed:         1,
	}
	switch s {
	case ScaleBench:
		cfg.SamplesPerSuite = 250
		cfg.MaxCombos = 1
		cfg.RNNEpochs = 8
		cfg.RNNMaxWindows = 400
	case ScaleQuick:
		cfg.SamplesPerSuite = 500
		cfg.MaxCombos = 2
		cfg.RNNEpochs = 22
		cfg.RNNMaxWindows = 1400
	default:
		cfg.SamplesPerSuite = 1000
		cfg.MaxCombos = 0
		cfg.RNNEpochs = 25
		cfg.RNNMaxWindows = 2000
	}
	return cfg
}

// combos returns the Table 3 combinations limited by MaxCombos.
func (c Config) combos() []dataset.Combo {
	all := dataset.Combos()
	if c.MaxCombos > 0 && c.MaxCombos < len(all) {
		return all[:c.MaxCombos]
	}
	return all
}

// genConfig converts to the dataset generator's configuration.
func (c Config) genConfig() dataset.GenerateConfig {
	return dataset.GenerateConfig{
		Platform:        c.Platform,
		SamplesPerSuite: c.SamplesPerSuite,
		Seed:            c.Seed,
	}
}

// coreOptions returns HighRPM options sized by the config.
func (c Config) coreOptions() core.Options {
	opts := core.DefaultOptions()
	opts.SetMissInterval(c.MissInterval)
	opts.Dynamic.Epochs = c.RNNEpochs
	opts.Dynamic.MaxWindows = c.RNNMaxWindows
	opts.Seed = c.Seed
	return opts
}

// Workspace lazily materialises and caches the train/test splits so that
// Tables 5–8, which share datasets, do not regenerate them.
type Workspace struct {
	cfg Config

	mu     sync.Mutex
	splits map[splitKey]*dataset.Split
}

type splitKey struct {
	suite string
	seen  bool
}

// NewWorkspace wraps a config with split caching.
func NewWorkspace(cfg Config) *Workspace {
	return &Workspace{cfg: cfg, splits: map[splitKey]*dataset.Split{}}
}

// Config returns the workspace configuration.
func (w *Workspace) Config() Config { return w.cfg }

// Split returns the materialised split for a combination, building it on
// first use.
func (w *Workspace) Split(combo dataset.Combo, seen bool) (*dataset.Split, error) {
	key := splitKey{combo.TestSuite, seen}
	w.mu.Lock()
	defer w.mu.Unlock()
	if sp, ok := w.splits[key]; ok {
		return sp, nil
	}
	sp, err := dataset.BuildSplit(w.cfg.genConfig(), combo, seen)
	if err != nil {
		return nil, err
	}
	w.splits[key] = sp
	return sp, nil
}

// trial puts one combination's split under evaluation.
func (w *Workspace) trial(combo dataset.Combo, seen bool) (*trial, error) {
	sp, err := w.Split(combo, seen)
	if err != nil {
		return nil, err
	}
	return newTrial(w.cfg, w.cfg.coreOptions(), sp.Train, seen).on(sp.Test), nil
}

// firstUnseen is the trial the sweeps and ablations run on: the first
// combination with its test suite held out of training.
func (w *Workspace) firstUnseen() (*trial, error) {
	return w.trial(w.cfg.combos()[0], false)
}
