// Observability: attach the metrics endpoint to a running HighRPM service
// and scrape it the way Prometheus would.
//
// The walkthrough trains a compact model, starts the cluster service plus
// the observability HTTP server, streams telemetry from two simulated
// nodes, then fetches /metrics and the JSON series API over real HTTP.
// Along the way it shows the monitoring-overhead self-metering — the
// highrpm_overhead_* series that price what the power monitor itself
// costs.
//
//	go run ./examples/observability
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"highrpm/internal/cluster"
	"highrpm/internal/core"
	"highrpm/internal/dataset"
	"highrpm/internal/obs"
	"highrpm/internal/platform"
	"highrpm/internal/workload"
)

func main() {
	// 1. Train a compact model in-process (see examples/quickstart for the
	// full training story).
	gen := dataset.DefaultGenerateConfig()
	gen.SamplesPerSuite = 150
	train := &dataset.Set{}
	for _, suite := range []string{"HPCC", "SPEC"} {
		set, err := dataset.GenerateSuite(gen, suite)
		if err != nil {
			log.Fatal(err)
		}
		train.Append(set)
	}
	opts := core.DefaultOptions()
	opts.ActiveLearning = false
	model, err := core.Train(train, opts)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Start the service and export it onto a metric registry: Stats
	// counters, store stats, per-node power gauges and the overhead
	// self-meter all register here.
	svc := cluster.NewService(model)
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc.RegisterMetrics(reg)

	// 3. Start the observability endpoint. SetStore enables the JSON
	// series API; SetHealth wires /readyz to the service lifecycle.
	osrv := obs.NewServer(reg, obs.DefaultServerOptions())
	osrv.SetStore(svc.Store())
	osrv.SetHealth(svc.Health)
	if err := osrv.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	base := "http://" + osrv.Addr()
	fmt.Printf("observability endpoint at %s\n", base)

	// 4. Stream one minute of telemetry from two simulated nodes, with an
	// IM (IPMI) reading every 10 s — the normal monitoring flow.
	bench, err := workload.Find("HPCC/FFT")
	if err != nil {
		log.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		nodeID := fmt.Sprintf("node-%02d", n)
		node, err := platform.NewNode(platform.ARMConfig(), int64(n)*101+1)
		if err != nil {
			log.Fatal(err)
		}
		agent, err := cluster.Dial(svc.Addr(), nodeID)
		if err != nil {
			log.Fatal(err)
		}
		node.Attach(bench)
		for t := 0; t < 60; t++ {
			s := node.Step(1)
			var measured *float64
			if t%10 == 0 {
				v := s.PNode
				measured = &v
			}
			if _, err := agent.Send(s.Time, s.Counters.Slice(), measured); err != nil {
				log.Fatal(err)
			}
		}
		if err := agent.Close(); err != nil {
			log.Fatal(err)
		}
	}

	// 5. Scrape /metrics like Prometheus would and show the interesting
	// families: current power per node, and what the monitoring cost.
	body := get(base + "/metrics")
	fmt.Println("\nselected /metrics series:")
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "highrpm_node_power_watts") ||
			strings.HasPrefix(line, "highrpm_overhead_ticks_total") ||
			strings.HasPrefix(line, "highrpm_overhead_wall_seconds_total") ||
			strings.HasPrefix(line, "highrpm_store_ingested_samples_total") {
			fmt.Println("  " + line)
		}
	}

	// 6. The JSON series API serves the same history the TCP query path
	// and highrpm-query -json do, byte-for-byte.
	series := get(base + "/api/v1/series?node=node-00&channel=p_node&res=10")
	fmt.Printf("\n10s rollup for node-00 over HTTP:\n  %s\n", strings.TrimSpace(series))

	ready := get(base + "/readyz")
	fmt.Printf("\n/readyz: %s", ready)

	// 7. Drain both servers gracefully.
	if err := osrv.Shutdown(2 * time.Second); err != nil {
		log.Fatal(err)
	}
	if err := svc.Shutdown(2 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Println("shut down cleanly")
}

func get(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(b)
}
