package cluster_test

import (
	"math"
	"path/filepath"
	"testing"

	"highrpm/internal/cluster"
	"highrpm/internal/core"
	"highrpm/internal/dataset"
	"highrpm/internal/leaktest"
	"highrpm/internal/platform"
	"highrpm/internal/stats"
	"highrpm/internal/workload"
)

// TestTrainToServiceEndToEnd walks the README's quickstart from outside the
// package: generate data, train, save, load, restore, monitor, serve.
func TestTrainToServiceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end training; skipped in -short")
	}
	leaktest.Check(t)
	gen := dataset.DefaultGenerateConfig()
	gen.SamplesPerSuite = 150
	train := &dataset.Set{}
	for _, s := range []string{"HPCC", "SPEC"} {
		set, err := dataset.GenerateSuite(gen, s)
		if err != nil {
			t.Fatal(err)
		}
		train.Append(set)
	}

	opts := core.DefaultOptions()
	opts.Dynamic.Epochs = 5
	opts.Dynamic.MaxWindows = 150
	model, err := core.Train(train, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Persist and reload.
	path := filepath.Join(t.TempDir(), "model.json")
	if err := core.Save(path, model); err != nil {
		t.Fatal(err)
	}
	model, err = core.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	// Unseen workload.
	bench, err := workload.Find("HPCG/hpcg")
	if err != nil {
		t.Fatal(err)
	}
	node, err := platform.NewNode(platform.ARMConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	trace := node.RunFor(bench, 100, 1)
	test := dataset.FromTrace(trace, "HPCG", bench.Name)
	idx := test.MeasuredIndices(10)

	for _, mode := range []core.RestoreMode{core.ModeStatic, core.ModeDynamic} {
		nodeP, pcpu, pmem, err := model.Restore(test, idx, nil, mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(nodeP) != 100 || len(pcpu) != 100 || len(pmem) != 100 {
			t.Fatalf("mode %v: restore lengths wrong", mode)
		}
		m := stats.Evaluate(test.NodePower(), nodeP)
		if m.MAPE > 25 {
			t.Fatalf("mode %v: node MAPE %.1f%% implausibly high", mode, m.MAPE)
		}
	}

	// Streaming monitor.
	mon := core.NewMonitor(model)
	for i, sm := range test.Samples[:20] {
		var measured *float64
		if i%10 == 0 {
			v := sm.PNode
			measured = &v
		}
		est, err := mon.Push(sm.PMC, measured)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(est.PNode) {
			t.Fatal("NaN estimate")
		}
	}

	// Cluster service.
	svc := cluster.NewService(model)
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	agent, err := cluster.Dial(svc.Addr(), "it-node")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	v := test.Samples[0].PNode
	est, err := agent.Send(0, test.Samples[0].PMC, &v)
	if err != nil {
		t.Fatal(err)
	}
	if !est.FromMeasurement || est.PNode != v {
		t.Fatal("service mishandled measured sample")
	}
}
