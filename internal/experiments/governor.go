package experiments

import (
	"highrpm/internal/core"
	"highrpm/internal/dataset"
	"highrpm/internal/governor"
	"highrpm/internal/platform"
	"highrpm/internal/workload"
)

// GovernorResult compares power-capping control stacks: the estimate
// source (raw IM readings vs HighRPM's per-second restoration) crossed
// with the control policy (hysteresis, PID, trend-predictive). It is the
// application payoff of the Fig. 1 motivation.
type GovernorResult struct {
	CapWatts float64
	Rows     []governor.Outcome
	// UncappedPeakW and UncappedEnergyJ are the no-governor reference.
	UncappedPeakW   float64
	UncappedEnergyJ float64
}

// RunGovernor executes Graph500 under each control stack at a cap inside
// the platform's actionable regime.
func RunGovernor(cfg Config) (*GovernorResult, error) {
	bench, err := workload.Find("Graph500/bfs")
	if err != nil {
		return nil, err
	}
	bench.Repeat = 8

	// Train the estimate model on the non-Graph500 suites.
	gen := cfg.genConfig()
	gen.SamplesPerSuite = cfg.SamplesPerSuite / 2
	if gen.SamplesPerSuite < 150 {
		gen.SamplesPerSuite = 150
	}
	train := &dataset.Set{}
	for _, s := range []string{workload.SuiteSPEC, workload.SuiteHPCC, workload.SuiteSMG2000, workload.SuiteHPCG} {
		set, err := dataset.GenerateSuite(gen, s)
		if err != nil {
			return nil, err
		}
		train.Append(set)
	}
	opts := cfg.coreOptions()
	model, err := core.Train(train, opts)
	if err != nil {
		return nil, err
	}

	const cap = 100.0
	out := &GovernorResult{CapWatts: cap}

	free, err := platform.NewNode(cfg.Platform, cfg.Seed+3)
	if err != nil {
		return nil, err
	}
	uncapped := free.Run(bench, 4000, 1)
	out.UncappedPeakW = uncapped.PeakPower()
	out.UncappedEnergyJ = uncapped.Energy()

	type stack struct {
		src func() governor.Source
		pol func() governor.Policy
	}
	stacks := []stack{
		{func() governor.Source { return &governor.RawIM{} }, func() governor.Policy { return &governor.Hysteresis{MarginFrac: 0.15} }},
		{func() governor.Source { return governor.NewModelSource(model) }, func() governor.Policy { return &governor.Hysteresis{MarginFrac: 0.15} }},
		{func() governor.Source { return governor.NewModelSource(model) }, func() governor.Policy { return &governor.PID{} }},
		{func() governor.Source { return governor.NewModelSource(model) }, func() governor.Policy {
			p := governor.NewPredictive(3)
			p.Base = &governor.Hysteresis{MarginFrac: 0.15}
			return p
		}},
	}
	// Average every stack over several workload seeds: a single Graph500
	// run's spike pattern can mask the source/policy differences.
	const seeds = 3
	for _, st := range stacks {
		var agg governor.Outcome
		for k := 0; k < seeds; k++ {
			node, err := platform.NewNode(cfg.Platform, cfg.Seed+3+int64(k)*131)
			if err != nil {
				return nil, err
			}
			res, err := governor.Run(node, bench, st.src(), st.pol(), governor.Config{
				CapWatts: cap, MissInterval: cfg.MissInterval,
			})
			if err != nil {
				return nil, err
			}
			agg.Policy, agg.Source = res.Policy, res.Source
			if res.PeakW > agg.PeakW {
				agg.PeakW = res.PeakW
			}
			agg.EnergyJ += res.EnergyJ / seeds
			agg.OverCapSeconds += res.OverCapSeconds / seeds
			agg.CompletionSeconds += res.CompletionSeconds / seeds
			agg.MeanFreqGHz += res.MeanFreqGHz / seeds
		}
		out.Rows = append(out.Rows, agg)
	}
	return out, nil
}

// Tables renders the control-stack comparison.
func (r *GovernorResult) Tables() []*Table {
	t := &Table{
		ID:     "governor",
		Title:  "Power-capping control stacks on Graph500 (cap 100 W, IM every 10 s)",
		Header: []string{"Source", "Policy", "Peak W", "Over-cap s", "Energy kJ", "Runtime s", "Mean GHz"},
	}
	t.AddRow("(uncapped)", "-", f1(r.UncappedPeakW), "-", f2(r.UncappedEnergyJ/1000), "-", "-")
	for _, row := range r.Rows {
		t.AddRow(row.Source, row.Policy, f1(row.PeakW), f1(row.OverCapSeconds),
			f2(row.EnergyJ/1000), f1(row.CompletionSeconds), f2(row.MeanFreqGHz))
	}
	t.Notes = append(t.Notes,
		"expected: the highrpm source cuts over-cap time vs raw IM at the same policy (it sees spikes between",
		"readings); PID/predictive trade over-cap time against retained frequency")
	return []*Table{t}
}
