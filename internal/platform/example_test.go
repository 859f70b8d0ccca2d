package platform_test

import (
	"fmt"

	"highrpm/internal/platform"
	"highrpm/internal/workload"
)

// ExampleNewNode runs a workload on the simulated ARM platform and reads
// the sparse IPMI sensor — the raw material HighRPM restores.
func ExampleNewNode() {
	node, err := platform.NewNode(platform.ARMConfig(), 42)
	if err != nil {
		panic(err)
	}
	bench, err := workload.Find("HPCC/FFT")
	if err != nil {
		panic(err)
	}
	trace := node.RunFor(bench, 30, 1)
	sensor := platform.NewIPMISensor(10, 7)
	readings := sensor.Readings(trace)
	fmt.Printf("%d samples, %d IPMI readings\n", len(trace.Samples), len(readings))
	// Output: 30 samples, 3 IPMI readings
}
