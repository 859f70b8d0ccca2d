// Powercap: the Fig. 1 scenario as an application — drive a power-capping
// governor from high-resolution restored readings instead of raw 0.1 Sa/s
// IPMI readings, and compare the outcomes.
//
// A governor acting on 10-second-old readings lets Graph500's power spikes
// run past the cap; a governor fed by HighRPM's per-second estimates reacts
// within a second of each spike, and adding slope prediction preempts
// crossings entirely. The example runs three control stacks on the same
// workload (averaged over several runs) and prints peak power, over-cap
// time and energy.
//
//	go run ./examples/powercap
package main

import (
	"fmt"
	"log"

	"highrpm/internal/core"
	"highrpm/internal/dataset"
	"highrpm/internal/governor"
	"highrpm/internal/platform"
	"highrpm/internal/workload"
)

const (
	// The cap sits in the regime where the governor actually moves between
	// DVFS levels; far lower caps pin the node at the bottom level and the
	// estimate source cannot matter.
	capWatts = 100.0
	missSecs = 10
	runs     = 3
)

func main() {
	model := trainCompactModel()
	bench, err := workload.Find("Graph500/bfs")
	if err != nil {
		log.Fatal(err)
	}
	bench.Repeat = 12

	fmt.Printf("power cap: %.0f W, IPMI interval: %ds, %d runs averaged\n\n", capWatts, missSecs, runs)

	type stack struct {
		label string
		src   func() governor.Source
		pol   func() governor.Policy
	}
	stacks := []stack{
		{"raw IPMI + hysteresis", func() governor.Source { return &governor.RawIM{} },
			func() governor.Policy { return &governor.Hysteresis{MarginFrac: 0.15} }},
		{"HighRPM + hysteresis", func() governor.Source { return governor.NewModelSource(model) },
			func() governor.Policy { return &governor.Hysteresis{MarginFrac: 0.15} }},
		{"HighRPM + predictive", func() governor.Source { return governor.NewModelSource(model) },
			func() governor.Policy {
				p := &governor.Predictive{Horizon: 3, Base: &governor.Hysteresis{MarginFrac: 0.15}}
				return p
			}},
	}
	var rawOver, bestOver float64
	for si, st := range stacks {
		var peak, over, energy, runtime float64
		for k := 0; k < runs; k++ {
			node, err := platform.NewNode(platform.ARMConfig(), int64(7+k*131))
			if err != nil {
				log.Fatal(err)
			}
			out, err := governor.Run(node, bench, st.src(), st.pol(), governor.Config{
				CapWatts: capWatts, MissInterval: missSecs,
			})
			if err != nil {
				log.Fatal(err)
			}
			if out.PeakW > peak {
				peak = out.PeakW
			}
			over += out.OverCapSeconds / runs
			energy += out.EnergyJ / runs
			runtime += out.CompletionSeconds / runs
		}
		fmt.Printf("%-22s: peak %6.1f W, over-cap %5.1f s, energy %6.2f kJ, runtime %4.0f s\n",
			st.label, peak, over, energy/1000, runtime)
		if si == 0 {
			rawOver = over
		}
		if si == len(stacks)-1 {
			bestOver = over
		}
	}
	if rawOver > 0 {
		fmt.Printf("\nHighRPM + prediction reacts to spikes between IPMI readings: over-cap time drops %.0f%%\n",
			100*(rawOver-bestOver)/rawOver)
	}
}

// trainCompactModel trains a small model on the non-Graph500 suites so the
// governed workload is unseen.
func trainCompactModel() *core.HighRPM {
	gen := dataset.DefaultGenerateConfig()
	gen.SamplesPerSuite = 240
	train := &dataset.Set{}
	for _, suite := range []string{"SPEC", "HPCC", "SMG2000", "HPCG"} {
		set, err := dataset.GenerateSuite(gen, suite)
		if err != nil {
			log.Fatal(err)
		}
		train.Append(set)
	}
	opts := core.DefaultOptions()
	opts.SetMissInterval(missSecs)
	model, err := core.Train(train, opts)
	if err != nil {
		log.Fatal(err)
	}
	return model
}
