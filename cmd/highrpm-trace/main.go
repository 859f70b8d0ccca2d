// Command highrpm-trace simulates a benchmark on a platform model and dumps
// the resulting trace — ground-truth power, sensor readings and PMC rates —
// as CSV for offline analysis (see highrpm-analyze) or plotting.
//
// Usage:
//
//	highrpm-trace [-bench HPCC/FFT] [-duration 300] [-platform arm|x86]
//	              [-miss 10] [-freq 2.2] [-o trace.csv]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"highrpm/internal/platform"
	"highrpm/internal/tracefile"
	"highrpm/internal/workload"
)

func main() {
	var (
		bench = flag.String("bench", "HPCC/FFT", "benchmark name (see -list)")
		dur   = flag.Float64("duration", 300, "trace duration in seconds")
		plat  = flag.String("platform", "arm", "platform model: arm or x86")
		miss  = flag.Float64("miss", 10, "IPMI reading interval in seconds")
		freq  = flag.Float64("freq", 0, "pin DVFS level in GHz (0 = max)")
		out   = flag.String("o", "-", "output CSV path (- for stdout)")
		seed  = flag.Int64("seed", 1, "simulation seed")
		list  = flag.Bool("list", false, "list benchmark names and exit")
	)
	flag.Parse()

	if *list {
		for _, b := range workload.Suite() {
			fmt.Println(b.String())
		}
		return
	}

	b, err := workload.Find(*bench)
	if err != nil {
		fatal(err)
	}
	var cfg platform.Config
	switch *plat {
	case "arm":
		cfg = platform.ARMConfig()
	case "x86":
		cfg = platform.X86Config()
	default:
		fatal(fmt.Errorf("unknown platform %q", *plat))
	}
	node, err := platform.NewNode(cfg, *seed)
	if err != nil {
		fatal(err)
	}
	if *freq > 0 {
		if err := node.SetFrequency(*freq); err != nil {
			fatal(err)
		}
	}
	tr := node.RunFor(b, *dur, 1)
	sensor := platform.NewIPMISensor(*miss, *seed+1)
	readings := sensor.Readings(tr)

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := tracefile.Write(w, tr, readings); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "highrpm-trace: %s on %s: %d samples, %d IPMI readings, peak %.1f W, energy %.1f kJ\n",
		b, cfg.Name, len(tr.Samples), len(readings), tr.PeakPower(), tr.Energy()/1000)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "highrpm-trace: %v\n", err)
	os.Exit(1)
}
