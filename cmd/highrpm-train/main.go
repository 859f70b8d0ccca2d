// Command highrpm-train trains a HighRPM model on simulated benchmark
// traces and persists it as JSON for highrpm-monitor and the examples.
//
// Usage:
//
//	highrpm-train [-out model.json] [-samples 500] [-platform arm|x86]
//	              [-miss 10] [-suites SPEC,PARSEC,...]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"highrpm/internal/core"
	"highrpm/internal/dataset"
	"highrpm/internal/platform"
	"highrpm/internal/workload"
)

func main() {
	var (
		out      = flag.String("out", "highrpm-model.json", "output model path")
		samples  = flag.Int("samples", 500, "samples per training suite")
		plat     = flag.String("platform", "arm", "platform model: arm or x86")
		miss     = flag.Int("miss", 10, "miss_interval in seconds")
		suites   = flag.String("suites", "", "comma-separated training suites (default: all seven)")
		seed     = flag.Int64("seed", 1, "simulation and model seed")
		noActive = flag.Bool("no-active-learning", false, "skip the active learning stage")
	)
	flag.Parse()

	gen := dataset.DefaultGenerateConfig()
	gen.SamplesPerSuite = *samples
	gen.Seed = *seed
	switch *plat {
	case "arm":
		gen.Platform = platform.ARMConfig()
	case "x86":
		gen.Platform = platform.X86Config()
	default:
		fmt.Fprintf(os.Stderr, "highrpm-train: unknown platform %q\n", *plat)
		os.Exit(2)
	}

	names := workload.SuiteNames()
	if *suites != "" {
		names = strings.Split(*suites, ",")
	}
	train := &dataset.Set{}
	for _, s := range names {
		set, err := dataset.GenerateSuite(gen, strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "highrpm-train: %v\n", err)
			os.Exit(1)
		}
		train.Append(set)
		fmt.Printf("collected %4d samples from %s\n", set.Len(), s)
	}

	opts := core.DefaultOptions()
	opts.SetMissInterval(*miss)
	opts.ActiveLearning = !*noActive
	opts.Seed = *seed

	start := time.Now()
	m, err := core.Train(train, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "highrpm-train: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trained on %d samples in %v (initial %v, active %v)\n",
		train.Len(), time.Since(start).Round(time.Millisecond),
		m.TrainStats.InitialDuration.Round(time.Millisecond),
		m.TrainStats.ActiveDuration.Round(time.Millisecond))

	if err := core.Save(*out, m); err != nil {
		fmt.Fprintf(os.Stderr, "highrpm-train: %v\n", err)
		os.Exit(1)
	}
	fi, _ := os.Stat(*out)
	fmt.Printf("wrote %s (%d bytes)\n", *out, fi.Size())
}
