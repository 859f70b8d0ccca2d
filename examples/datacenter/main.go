// Datacenter: multi-node monitoring through the §4.1 deployment — HighRPM
// installed as a service on a control node, shared by compute-node agents
// over TCP. Each simulated node runs a different workload; the service
// restores every node's power per second from sparse IPMI readings and the
// example aggregates a live cluster power view.
//
//	go run ./examples/datacenter
package main

import (
	"fmt"
	"log"
	"sync"

	"highrpm/internal/cluster"
	"highrpm/internal/core"
	"highrpm/internal/dataset"
	"highrpm/internal/platform"
	"highrpm/internal/stats"
	"highrpm/internal/workload"
)

const (
	nodes    = 4
	duration = 90
	missSecs = 10
)

func main() {
	// Train once on the control node.
	gen := dataset.DefaultGenerateConfig()
	gen.SamplesPerSuite = 240
	train := &dataset.Set{}
	for _, suite := range workload.SuiteNames() {
		set, err := dataset.GenerateSuite(gen, suite)
		if err != nil {
			log.Fatal(err)
		}
		train.Append(set)
	}
	opts := core.DefaultOptions()
	opts.SetMissInterval(missSecs)
	model, err := core.Train(train, opts)
	if err != nil {
		log.Fatal(err)
	}

	svc := cluster.NewService(model)
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	fmt.Printf("control-node service on %s, %d compute nodes, %ds\n\n", svc.Addr(), nodes, duration)

	workloads := []string{"HPCC/FFT", "HPCC/STREAM", "Graph500/bfs", "HPCG/hpcg"}

	type cell struct {
		est, truth float64
	}
	grid := make([][]cell, nodes) // [node][second]
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		grid[n] = make([]cell, duration)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			bench, err := workload.Find(workloads[id%len(workloads)])
			if err != nil {
				log.Fatal(err)
			}
			node, err := platform.NewNode(platform.ARMConfig(), int64(id)*977+5)
			if err != nil {
				log.Fatal(err)
			}
			agent, err := cluster.Dial(svc.Addr(), fmt.Sprintf("node-%02d", id))
			if err != nil {
				log.Fatal(err)
			}
			defer agent.Close()
			node.Attach(bench)
			for t := 0; t < duration; t++ {
				s := node.Step(1)
				var measured *float64
				if t%missSecs == 0 {
					v := s.PNode
					measured = &v
				}
				est, err := agent.Send(s.Time, s.Counters.Slice(), measured)
				if err != nil {
					log.Fatal(err)
				}
				grid[id][t] = cell{est: est.PNode, truth: s.PNode}
			}
		}(n)
	}
	wg.Wait()

	// Cluster-level view: restored total power per 10 s bucket.
	fmt.Println("cluster power (restored vs true), 10 s buckets:")
	fmt.Println("  window      restored-W   true-W   err-W")
	for t0 := 0; t0 < duration; t0 += 10 {
		var est, truth float64
		var k int
		for t := t0; t < t0+10 && t < duration; t++ {
			for n := 0; n < nodes; n++ {
				est += grid[n][t].est
				truth += grid[n][t].truth
				k++
			}
		}
		est /= float64(k) / nodes
		truth /= float64(k) / nodes
		fmt.Printf("  [%3d,%3d)   %9.1f  %8.1f  %6.1f\n", t0, t0+10, est, truth, est-truth)
	}

	// Per-node accuracy.
	fmt.Println("\nper-node restoration accuracy:")
	for n := 0; n < nodes; n++ {
		var obs, pred []float64
		for t := 0; t < duration; t++ {
			obs = append(obs, grid[n][t].truth)
			pred = append(pred, grid[n][t].est)
		}
		fmt.Printf("  node-%02d (%-13s): %v\n", n, workloads[n%len(workloads)], stats.Evaluate(obs, pred))
	}

	st := svc.Stats()
	fmt.Printf("\nservice handled %d samples from %d nodes (%d were IM readings — %.0f%% of traffic restored)\n",
		st.Samples, st.Nodes, st.Measured, 100*float64(st.Samples-st.Measured)/float64(st.Samples))
}
