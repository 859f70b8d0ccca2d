package experiments

import (
	"fmt"

	"highrpm/internal/governor"
	"highrpm/internal/platform"
	"highrpm/internal/workload"
)

// Fig1Scenario is one power-capping configuration of the motivation figure.
type Fig1Scenario struct {
	Label        string
	ReadInterval int // PI, seconds
	ActInterval  int // AI, seconds
	Result       governor.Outcome
}

// Fig1Result holds the Fig. 1 scenarios.
type Fig1Result struct {
	Scenarios []Fig1Scenario
	CapWatts  float64
}

// RunFig1 reproduces the Fig. 1 motivation: Graph500 BFS under a power cap
// with varying power-reading intervals (PI) and capping-action intervals
// (AI) on the ARM platform, governed by the hysteresis policy on raw IM
// readings. Coarse readings miss spikes; slow actions let peak power rise
// toward the uncapped level and add kilojoule-scale energy.
func RunFig1(cfg Config) (*Fig1Result, error) {
	bench, err := workload.Find("Graph500/bfs")
	if err != nil {
		return nil, err
	}
	// A longer program makes the energy differences visible.
	bench.Repeat = 20
	armCfg := platform.ARMConfig()
	// Cap chosen below the workload's natural peak so capping must act.
	const cap = 95.0
	scenarios := []Fig1Scenario{
		{Label: "(a) PI=1s  AI=1s", ReadInterval: 1, ActInterval: 1},
		{Label: "(b) PI=10s AI=1s", ReadInterval: 10, ActInterval: 1},
		{Label: "(c) PI=1s  AI=1s", ReadInterval: 1, ActInterval: 1},
		{Label: "(d) PI=1s  AI=10s", ReadInterval: 1, ActInterval: 10},
		{Label: "(e) PI=1s  AI=30s", ReadInterval: 1, ActInterval: 30},
	}
	out := &Fig1Result{CapWatts: cap}
	for _, sc := range scenarios {
		node, err := platform.NewNode(armCfg, cfg.Seed+7)
		if err != nil {
			return nil, err
		}
		sc.Result, err = governor.Run(node, bench, &governor.RawIM{}, &governor.Hysteresis{}, governor.Config{
			CapWatts: cap, MissInterval: sc.ReadInterval, ActInterval: sc.ActInterval,
		})
		if err != nil {
			return nil, err
		}
		out.Scenarios = append(out.Scenarios, sc)
	}
	return out, nil
}

// Tables renders the Fig. 1 summary rows. The "seen" column counts the
// readings above the cap — the spiking points of Fig. 1(a) that a coarse
// reading interval fails to capture.
func (r *Fig1Result) Tables() []*Table {
	t := &Table{
		ID:     "fig1",
		Title:  fmt.Sprintf("Fig. 1: Graph500 power capping at %.0f W, varying PI and AI", r.CapWatts),
		Header: []string{"Scenario", "Peak W", "Energy kJ", "Over-cap s (actual)", "Over-cap readings (seen)", "Runtime s"},
	}
	for _, sc := range r.Scenarios {
		t.AddRow(sc.Label,
			f1(sc.Result.PeakW),
			f2(sc.Result.EnergyJ/1000),
			f1(sc.Result.OverCapSeconds),
			fmt.Sprintf("%d", sc.Result.OverCapReadings),
			f1(sc.Result.CompletionSeconds))
	}
	t.Notes = append(t.Notes,
		"shape target: (b) observes far fewer over-cap spikes than (a) despite identical actual power (PI hides sudden changes);",
		"peak power, over-cap time and energy grow (c) -> (d) -> (e) as AI lengthens")
	return []*Table{t}
}
