// Quickstart: train HighRPM on simulated benchmark traces, then restore the
// temporal and spatial resolution of a sparse node-power log.
//
// The scenario mirrors the paper's core use case: your cluster's BMC gives
// you one node-power reading every 10 seconds and nothing per-component;
// HighRPM turns that into 1 Sa/s node, CPU and memory power.
//
//	go run ./examples/quickstart
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
	// 1. Collect labeled initial samples (§4.1). On real hardware this is a
	// one-off bench-measurement campaign; here the simulator provides it.
	gen := dataset.DefaultGenerateConfig()
	gen.SamplesPerSuite = 300
	train := &dataset.Set{}
	for _, suite := range []string{"SPEC", "PARSEC", "HPCC", "SMG2000"} {
		set, err := dataset.GenerateSuite(gen, suite)
		if err != nil {
			log.Fatal(err)
		}
		train.Append(set)
	}
	fmt.Printf("training on %d labeled samples\n", train.Len())

	// 2. Train the framework: StaticTRR + DynamicTRR + SRR, then the
	// active-learning refinement pass.
	opts := core.DefaultOptions()
	model, err := core.Train(train, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained in %v (+%v active learning)\n",
		model.TrainStats.InitialDuration.Round(1e6),
		model.TrainStats.ActiveDuration.Round(1e6))

	// 3. Run an unseen workload and keep only what a real deployment has:
	// PMC samples at 1 Sa/s and IPMI readings every 10 s.
	bench, err := workload.Find("HPCG/hpcg")
	if err != nil {
		log.Fatal(err)
	}
	node, err := platform.NewNode(platform.ARMConfig(), 42)
	if err != nil {
		log.Fatal(err)
	}
	trace := node.RunFor(bench, 240, 1)
	test := dataset.FromTrace(trace, "HPCG", bench.Name)
	measuredIdx := test.MeasuredIndices(10)

	// 4. Restore: sparse readings -> 1 Sa/s node power -> CPU/MEM split.
	nodePower, pcpu, pmem, err := model.Restore(test, measuredIdx, nil, core.ModeDynamic)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Score against the simulator's ground truth.
	fmt.Println("\naccuracy vs ground truth (DynamicTRR online mode):")
	fmt.Printf("  node: %v\n", stats.Evaluate(test.NodePower(), nodePower))
	fmt.Printf("  cpu:  %v\n", stats.Evaluate(test.CPUPower(), pcpu))
	fmt.Printf("  mem:  %v\n", stats.Evaluate(test.MemPower(), pmem))

	fmt.Println("\nfirst 15 seconds of the restored log:")
	fmt.Println("  t(s)  IM?  node(W)  true   cpu(W)  true   mem(W)  true")
	measured := map[int]bool{}
	for _, i := range measuredIdx {
		measured[i] = true
	}
	for i := 0; i < 15 && i < test.Len(); i++ {
		tag := " "
		if measured[i] {
			tag = "*"
		}
		s := test.Samples[i]
		fmt.Printf("  %4.0f  %s  %7.1f %6.1f  %6.1f %6.1f  %6.1f %6.1f\n",
			s.Time, tag, nodePower[i], s.PNode, pcpu[i], s.PCPU, pmem[i], s.PMEM)
	}
	fmt.Println("\n(* = second with an actual IPMI reading; everything else is restored)")
}
