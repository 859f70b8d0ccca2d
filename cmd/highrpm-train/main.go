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

	"highrpm"
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

	gen := highrpm.DefaultGenerateConfig()
	gen.SamplesPerSuite = *samples
	gen.Seed = *seed
	switch *plat {
	case "arm":
		gen.Platform = highrpm.ARMPlatform()
	case "x86":
		gen.Platform = highrpm.X86Platform()
	default:
		fmt.Fprintf(os.Stderr, "highrpm-train: unknown platform %q\n", *plat)
		os.Exit(2)
	}

	names := highrpm.SuiteNames()
	if *suites != "" {
		names = strings.Split(*suites, ",")
	}
	train := &highrpm.Set{}
	for _, s := range names {
		set, err := highrpm.GenerateSuite(gen, strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "highrpm-train: %v\n", err)
			os.Exit(1)
		}
		train.Append(set)
		fmt.Printf("collected %4d samples from %s\n", set.Len(), s)
	}

	opts := highrpm.DefaultOptions()
	opts.SetMissInterval(*miss)
	opts.ActiveLearning = !*noActive
	opts.Seed = *seed

	start := time.Now()
	m, err := highrpm.Train(train, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "highrpm-train: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trained on %d samples in %v (initial %v, active %v)\n",
		train.Len(), time.Since(start).Round(time.Millisecond),
		m.TrainStats.InitialDuration.Round(time.Millisecond),
		m.TrainStats.ActiveDuration.Round(time.Millisecond))

	if err := highrpm.SaveModel(*out, m); err != nil {
		fmt.Fprintf(os.Stderr, "highrpm-train: %v\n", err)
		os.Exit(1)
	}
	fi, _ := os.Stat(*out)
	fmt.Printf("wrote %s (%d bytes)\n", *out, fi.Size())
}
