// Command highrpm-analyze restores a persisted monitoring trace offline:
// it reads a CSV written by highrpm-trace (or by a real collector using the
// same layout), applies a trained model's StaticTRR + SRR, and reports the
// restored series and — when the file carries ground truth — accuracy.
//
// Usage:
//
//	highrpm-trace -bench HPCG/hpcg -o run.csv
//	highrpm-train -out model.json
//	highrpm-analyze -model model.json run.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"highrpm/internal/core"
	"highrpm/internal/stats"
	"highrpm/internal/tracefile"
)

func main() {
	var (
		modelPath = flag.String("model", "highrpm-model.json", "trained model JSON")
		suite     = flag.String("suite", "unknown", "suite tag for the trace")
		bench     = flag.String("bench", "unknown", "benchmark tag for the trace")
		showAll   = flag.Bool("series", false, "print the full restored series")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: highrpm-analyze [flags] trace.csv")
		os.Exit(2)
	}

	model, err := core.Load(*modelPath)
	if err != nil {
		fatal(err)
	}
	fh, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer fh.Close()
	tf, err := tracefile.Read(fh)
	if err != nil {
		fatal(err)
	}
	set := tf.Dataset(*suite, *bench)
	idx, vals := tf.Readings()
	if len(idx) < 2 {
		fatal(fmt.Errorf("trace has %d IM readings; need at least 2 to restore", len(idx)))
	}
	fmt.Printf("trace: %d samples, %d IM readings (every ~%.0f s)\n",
		set.Len(), len(idx), float64(set.Len())/float64(len(idx)))

	node, pcpu, pmem, err := model.Restore(set, idx, vals, core.ModeStatic)
	if err != nil {
		fatal(err)
	}

	if *showAll {
		fmt.Println("time_s, p_node_w, p_cpu_w, p_mem_w")
		for i := range node {
			fmt.Printf("%.0f, %.2f, %.2f, %.2f\n", set.Samples[i].Time, node[i], pcpu[i], pmem[i])
		}
	}

	// Summary statistics of the restored series.
	var sumN, sumC, sumM, peak float64
	for i := range node {
		sumN += node[i]
		sumC += pcpu[i]
		sumM += pmem[i]
		if node[i] > peak {
			peak = node[i]
		}
	}
	n := float64(len(node))
	fmt.Printf("restored averages: node %.1f W, cpu %.1f W, mem %.1f W; peak node %.1f W\n",
		sumN/n, sumC/n, sumM/n, peak)
	fmt.Printf("restored node energy: %.2f kJ over %.0f s\n", sumN/1000, n)

	if tf.HasGroundTruth() {
		fmt.Println("\nfile carries ground truth; accuracy of the restoration:")
		fmt.Printf("  node: %v\n", stats.Evaluate(set.NodePower(), node))
		fmt.Printf("  cpu:  %v\n", stats.Evaluate(set.CPUPower(), pcpu))
		fmt.Printf("  mem:  %v\n", stats.Evaluate(set.MemPower(), pmem))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "highrpm-analyze: %v\n", err)
	os.Exit(1)
}
