// GPU: the §6.4.4 extension as an application — restore high-resolution
// power for a discrete accelerator whose out-of-band sensor reports once
// every 10 seconds, using the GPU's own performance counters.
//
// The example also demonstrates the extension's documented limitation:
// a kernel whose relaunch period aliases the reading interval defeats
// trend-based restoration until the sensor is read faster than the
// kernel's shortest phase.
//
//	go run ./examples/gpu
package main

import (
	"fmt"
	"log"

	"highrpm/internal/core"
	"highrpm/internal/gpuext"
	"highrpm/internal/stats"
)

func main() {
	cfg := gpuext.DefaultDevice()
	fmt.Printf("device: %s (%d SMs @ %.1f GHz, %.0f GB/s)\n\n", cfg.Name, cfg.SMs, cfg.ClockGHz, cfg.MemBWGBs)

	// Train StaticTRR on a kernel mix covering the device's power band, the
	// GPU counters standing in for the CPU's PMCs.
	dev, err := gpuext.NewDevice(cfg, 1)
	if err != nil {
		log.Fatal(err)
	}
	train := dev.RunMix(gpuext.Kernels(), 200).Set()
	trr, err := core.FitStaticTRR(train, core.StaticTRROptions{MissInterval: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained StaticTRR on %d seconds of mixed GPU kernels\n\n", train.Len())

	fmt.Println("restoration accuracy per kernel (10 s readings -> 1 Sa/s):")
	for _, k := range gpuext.Kernels() {
		testDev, err := gpuext.NewDevice(cfg, 42)
		if err != nil {
			log.Fatal(err)
		}
		m, err := trr.Evaluate(testDev.Run(k, 200).Set())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %v\n", k.Name, m)
	}

	// The aliasing limitation and its remedy.
	var reduction gpuext.Kernel
	for _, k := range gpuext.Kernels() {
		if k.Name == "reduction" {
			reduction = k
		}
	}
	trr2, err := core.FitStaticTRR(train, core.StaticTRROptions{MissInterval: 2})
	if err != nil {
		log.Fatal(err)
	}
	testDev, err := gpuext.NewDevice(cfg, 42)
	if err != nil {
		log.Fatal(err)
	}
	test := testDev.Run(reduction, 200).Set()
	slow, err := trr.Evaluate(test)
	if err != nil {
		log.Fatal(err)
	}
	var fast stats.Metrics
	if fast, err = trr2.Evaluate(test); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\naliasing: reduction relaunches every 16 s; a 10 s sensor misses its 4 s troughs")
	fmt.Printf("  10 s readings: MAPE %.1f%%   (trend restoration defeated)\n", slow.MAPE)
	fmt.Printf("   2 s readings: MAPE %.1f%%   (faster than the shortest phase)\n", fast.MAPE)
}
