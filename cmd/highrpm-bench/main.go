// Command highrpm-bench regenerates the paper's tables and figures on the
// simulated platforms.
//
// Usage:
//
//	highrpm-bench [flags] [experiment ...]
//
// Without arguments every experiment runs in presentation order. Pass
// experiment IDs to run a subset; -list prints them.
//
// The -scale flag picks the compute budget: "bench" (seconds), "quick"
// (default, minutes), or "full" (the paper-faithful 1000 samples/suite over
// all seven Table 3 combinations).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"highrpm/internal/experiments"
)

// catalogue prints one "id description" line per registered experiment.
func catalogue(w io.Writer, indent string) {
	for _, id := range experiments.IDs() {
		fmt.Fprintf(w, "%s%-9s %s\n", indent, id, experiments.Describe(id))
	}
}

func main() {
	var (
		scaleFlag  = flag.String("scale", "quick", "compute budget: bench, quick, or full")
		seed       = flag.Int64("seed", 1, "simulation and model seed")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		parallel   = flag.Int("parallel", 1, "experiments run concurrently (1 = serial, streaming output)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: highrpm-bench [flags] [experiment ...]\n\nflags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nexperiments:\n")
		catalogue(os.Stderr, "  ")
	}
	flag.Parse()

	if *list {
		catalogue(os.Stdout, "")
		return
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "bench":
		scale = experiments.ScaleBench
	case "quick":
		scale = experiments.ScaleQuick
	case "full":
		scale = experiments.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "highrpm-bench: unknown scale %q (want bench, quick, or full)\n", *scaleFlag)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "highrpm-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "highrpm-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := experiments.NewConfig(scale)
	cfg.Seed = *seed
	ws := experiments.NewWorkspace(cfg)

	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.DefaultOrder()
	}
	combos := cfg.MaxCombos // 0 = all seven Table 3 combinations
	if combos <= 0 {
		combos = 7
	}
	fmt.Printf("highrpm-bench: scale=%s samples/suite=%d combos=%d seed=%d parallel=%d\n\n",
		*scaleFlag, cfg.SamplesPerSuite, combos, *seed, *parallel)
	start := time.Now()
	run := func(ids []string) {
		if err := experiments.RunAndRenderParallel(ws, ids, os.Stdout, *parallel); err != nil {
			fmt.Fprintf(os.Stderr, "highrpm-bench: %v\n", err)
			os.Exit(1)
		}
	}
	if *parallel > 1 {
		run(ids)
	} else {
		// Serial: stream each experiment's tables as it finishes.
		for _, id := range ids {
			t0 := time.Now()
			run([]string{id})
			fmt.Printf("[%s took %v]\n\n", id, time.Since(t0).Round(time.Millisecond))
		}
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "highrpm-bench: memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "highrpm-bench: memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}
