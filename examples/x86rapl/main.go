// X86rapl: the §6.3 / Table 9 scenario end to end — HighRPM on an x86 node
// where RAPL provides accurate 1 Sa/s package and DRAM power, deliberately
// sparsified to one reading every 10 seconds to create the restoration
// problem, then restored and scored against the full-rate series. The
// simulator's ground truth stands in for RAPL's 1 Sa/s readings.
//
//	go run ./examples/x86rapl
package main

import (
	"fmt"
	"log"

	"highrpm/internal/core"
	"highrpm/internal/dataset"
	"highrpm/internal/platform"
	"highrpm/internal/stats"
	"highrpm/internal/workload"
)

func main() {
	x86 := platform.X86Config()
	fmt.Printf("platform: %s (%d cores, %.1f GHz max)\n\n", x86.Name, x86.Cores, x86.FreqLevels[len(x86.FreqLevels)-1])

	// Train on six suites at full RAPL resolution.
	gen := dataset.DefaultGenerateConfig()
	gen.Platform = x86
	gen.SamplesPerSuite = 300
	train := &dataset.Set{}
	for _, suite := range []string{"SPEC", "PARSEC", "HPCC", "Graph500", "HPL-AI", "SMG2000"} {
		set, err := dataset.GenerateSuite(gen, suite)
		if err != nil {
			log.Fatal(err)
		}
		train.Append(set)
	}

	opts := core.DefaultOptions()
	model, err := core.Train(train, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d samples in %v\n\n", train.Len(), model.TrainStats.InitialDuration.Round(1e6))

	// Unseen application: HPCG.
	bench, err := workload.Find("HPCG/hpcg")
	if err != nil {
		log.Fatal(err)
	}
	node, err := platform.NewNode(x86, 99)
	if err != nil {
		log.Fatal(err)
	}
	trace := node.RunFor(bench, 300, 1)
	test := dataset.FromTrace(trace, "HPCG", bench.Name)

	// Sparsify: keep one node reading every 10 s (perf would normally give
	// 1 Sa/s; the experiment recreates the paper's deliberate sparsity).
	measuredIdx := test.MeasuredIndices(10)
	fmt.Printf("RAPL series: %d s; kept %d sparse readings (0.1 Sa/s)\n", test.Len(), len(measuredIdx))

	nodePower, pcpu, pmem, err := model.Restore(test, measuredIdx, nil, core.ModeDynamic)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nrestoration accuracy vs full-rate ground truth:")
	fmt.Printf("  P_Node: %v\n", stats.Evaluate(test.NodePower(), nodePower))
	fmt.Printf("  P_CPU : %v\n", stats.Evaluate(test.CPUPower(), pcpu))
	fmt.Printf("  P_MEM : %v\n", stats.Evaluate(test.MemPower(), pmem))

	// StaticTRR for comparison (offline log analysis mode).
	nodeStatic, err := model.RestoreTemporal(test, measuredIdx, nil, core.ModeStatic)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nStaticTRR (offline) P_Node: %v\n", stats.Evaluate(test.NodePower(), nodeStatic))
	fmt.Println("\nTable 9's full comparison: go run ./cmd/highrpm-bench tab9")
}
