package experiments

import (
	"highrpm/internal/mat"
	"highrpm/internal/platform"
	"highrpm/internal/workload"
)

// Fig2Run summarises one benchmark's power split.
type Fig2Run struct {
	Benchmark string
	AvgNode   float64
	AvgCPU    float64
	AvgMEM    float64
	AvgOther  float64
	Dominant  string // "CPU" or "MEM"
}

// Fig2Result holds the FFT-vs-Stream component divergence data.
type Fig2Result struct {
	Runs []Fig2Run
}

// RunFig2 reproduces Fig. 2: FFT (compute-bound) and STREAM (memory-bound)
// run uncapped on the ARM node. Their node-level powers are similar while
// the component split diverges — the motivation for spatial restoration.
func RunFig2(cfg Config) (*Fig2Result, error) {
	out := &Fig2Result{}
	for _, name := range []string{"HPCC/FFT", "HPCC/STREAM"} {
		b, err := workload.Find(name)
		if err != nil {
			return nil, err
		}
		node, err := platform.NewNode(platform.ARMConfig(), cfg.Seed+13)
		if err != nil {
			return nil, err
		}
		tr := node.RunFor(b, 300, 1)
		run := Fig2Run{
			Benchmark: name,
			AvgNode:   mat.Mean(tr.NodePower()),
			AvgCPU:    mat.Mean(tr.CPUPower()),
			AvgMEM:    mat.Mean(tr.MemPower()),
		}
		run.AvgOther = run.AvgNode - run.AvgCPU - run.AvgMEM
		if run.AvgCPU >= run.AvgMEM {
			run.Dominant = "CPU"
		} else {
			run.Dominant = "MEM"
		}
		out.Runs = append(out.Runs, run)
	}
	return out, nil
}

// Tables renders the Fig. 2 summary rows.
func (r *Fig2Result) Tables() []*Table {
	t := &Table{
		ID:     "fig2",
		Title:  "Fig. 2: CPU/DRAM power split of FFT vs Stream on the ARM node",
		Header: []string{"Benchmark", "Avg Node W", "Avg CPU W", "Avg MEM W", "Avg Other W", "Dominant"},
	}
	for _, run := range r.Runs {
		t.AddRow(run.Benchmark, f1(run.AvgNode), f1(run.AvgCPU), f1(run.AvgMEM), f1(run.AvgOther), run.Dominant)
	}
	t.Notes = append(t.Notes,
		"shape target: node powers comparable (~90 W line); FFT CPU-dominated, Stream DRAM-dominated; Other ~25 W")
	return []*Table{t}
}
