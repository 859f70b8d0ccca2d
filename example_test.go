package highrpm_test

import (
	"fmt"

	"highrpm"
)

// ExampleEvaluate scores a restored power series against ground truth with
// the paper's metrics (§5.5).
func ExampleEvaluate() {
	observed := []float64{100, 100, 100, 100}
	predicted := []float64{110, 90, 100, 100}
	m := highrpm.Evaluate(observed, predicted)
	fmt.Printf("MAPE=%.0f%% RMSE=%.2f MAE=%.0f\n", m.MAPE, m.RMSE, m.MAE)
	// Output: MAPE=5% RMSE=7.07 MAE=5
}

// ExampleFindBenchmark looks up one of the 96 evaluation workloads.
func ExampleFindBenchmark() {
	b, err := highrpm.FindBenchmark("HPCC/STREAM")
	if err != nil {
		panic(err)
	}
	fmt.Println(b.Suite, b.Name)
	// Output: HPCC STREAM
}

// ExampleNewNode runs a workload on the simulated ARM platform and reads
// the sparse IPMI sensor — the raw material HighRPM restores.
func ExampleNewNode() {
	node, err := highrpm.NewNode(highrpm.ARMPlatform(), 42)
	if err != nil {
		panic(err)
	}
	bench, err := highrpm.FindBenchmark("HPCC/FFT")
	if err != nil {
		panic(err)
	}
	trace := node.RunFor(bench, 30, 1)
	sensor := highrpm.NewIPMISensor(10, 7)
	readings := sensor.Readings(trace)
	fmt.Printf("%d samples, %d IPMI readings\n", len(trace.Samples), len(readings))
	// Output: 30 samples, 3 IPMI readings
}
