// Command highrpm-monitor runs live high-resolution power monitoring over a
// simulated cluster: it starts the HighRPM control-node service, launches
// one simulated compute node per -nodes, streams telemetry through
// fault-tolerant agents, and prints per-second restored power next to the
// sparse IPMI readings the service actually received.
//
// Usage:
//
//	highrpm-monitor [-model highrpm-model.json] [-nodes 2] [-bench HPCC/FFT]
//	                [-duration 60] [-miss 10] [-read-timeout 5m] [-max-conns 0]
//	                [-data-dir ./highrpm-data] [-fsync batch] [-snapshot-every 65536]
//	                [-http 127.0.0.1:9090] [-pprof] [-grace 2s]
//
// -help groups the knobs by subsystem (simulation, service hardening,
// durability, observability). Without -model a small
// model is trained in-process first (~seconds).
//
// The service-hardening flags map onto ServiceOptions: -read-timeout reaps
// connections that go silent, -write-timeout bounds each reply, -max-frame
// lowers the 8 MiB cap on one wire frame (it cannot raise it: agents read
// with that cap), and -max-conns drops connections beyond the cap at
// accept time. Every simulated node runs the one agent the library ships
// for production, ResilientAgent: it settles on the binary codec in Hello,
// sends one record batch of one sample per simulated second, reconnects
// with backoff and falls back to local inference, on the model the
// service runs, when the service is unreachable.
//
// -data-dir makes the history store durable: every estimate is written to
// a CRC-checked write-ahead log before it lands in memory, the log is
// periodically compacted into snapshots (-snapshot-every), and a restart
// on the same directory replays both. -fsync picks the WAL sync policy:
// batch (default, background flusher; a crash loses at most one flush
// interval), always (fsync per sample), or never (OS page cache only).
//
// -http starts the observability endpoint on the given address: /metrics
// in Prometheus text format (per-node power gauges, service and store
// counters, highrpm_overhead_* self-metering), /api/v1/query and
// /api/v1/series JSON over the history store, and /healthz + /readyz
// probes. -pprof additionally mounts net/http/pprof there. Both the
// service and the endpoint drain gracefully for -grace at exit.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"highrpm/internal/cliutil"
	"highrpm/internal/cluster"
	"highrpm/internal/core"
	"highrpm/internal/dataset"
	"highrpm/internal/obs"
	"highrpm/internal/platform"
	"highrpm/internal/tsdb"
	"highrpm/internal/workload"
)

func main() {
	var (
		modelPath = flag.String("model", "", "trained model JSON (empty: train in-process)")
		nodes     = flag.Int("nodes", 2, "number of simulated compute nodes")
		bench     = flag.String("bench", "HPCC/FFT", "benchmark each node runs")
		duration  = flag.Float64("duration", 60, "monitoring duration in seconds")
		miss      = flag.Int("miss", 10, "IPMI reading interval in seconds")
		retain    = flag.Int("retain", 0, "history retention in points per resolution (0: library defaults)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		quiet     = flag.Bool("quiet", false, "only print the final summary")

		readTimeout  = flag.Duration("read-timeout", cluster.DefaultServiceOptions().ReadTimeout, "reap a connection after this long without a message (0: never)")
		writeTimeout = flag.Duration("write-timeout", cluster.DefaultServiceOptions().WriteTimeout, "bound writing one reply (0: unbounded)")
		maxFrame     = flag.Int("max-frame", cluster.DefaultServiceOptions().MaxFrame, "largest wire frame in bytes; lowers the 8 MiB cap, never raises it")
		maxConns     = flag.Int("max-conns", 0, "concurrent connection cap (0: unlimited)")

		dataDir   = flag.String("data-dir", "", "durable store directory: WAL + snapshots, recovered on start (empty: in-memory history)")
		fsync     = flag.String("fsync", "batch", "WAL fsync policy: batch, always or never (with -data-dir)")
		snapEvery = flag.Int("snapshot-every", 0, "write a snapshot every N ingests (0: library default, <0: disabled; with -data-dir)")

		httpAddr  = flag.String("http", "", "observability HTTP address, e.g. 127.0.0.1:9090 (empty: disabled)")
		pprofFlag = flag.Bool("pprof", false, "mount net/http/pprof on the observability endpoint")
		grace     = flag.Duration("grace", 2*time.Second, "graceful-shutdown drain for the service and HTTP endpoint")
	)
	flag.Usage = cliutil.GroupedUsage(flag.CommandLine, "highrpm-monitor", flagGroups)
	flag.Parse()

	model, err := loadOrTrain(*modelPath, *miss, *seed)
	if err != nil {
		fatal(err)
	}

	svcOpts := cluster.ServiceOptions{
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		MaxFrame:     *maxFrame,
		MaxConns:     *maxConns,
	}
	storeOpts := tsdb.DefaultOptions()
	if *retain > 0 {
		storeOpts.RetainRaw, storeOpts.Retain10s, storeOpts.Retain60s = *retain, *retain, *retain
	}
	var svc *cluster.Service
	if *dataDir != "" {
		policy, err := tsdb.ParseFsyncPolicy(*fsync)
		if err != nil {
			fatal(err)
		}
		storeOpts.Dir = *dataDir
		storeOpts.Fsync = policy
		storeOpts.SnapshotEvery = *snapEvery
		var rec *tsdb.Recovery
		svc, rec, err = cluster.NewDurableService(model, svcOpts, storeOpts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("durable history in %s (fsync=%s): recovered %d WAL records past seq %d",
			*dataDir, policy, rec.Replayed, rec.SnapshotSeq)
		if rec.TornTail {
			fmt.Print(", torn tail truncated")
		}
		for _, d := range rec.Damage {
			fmt.Printf(", damage: %s", d)
		}
		fmt.Println()
	} else {
		svc = cluster.NewServiceWith(model, svcOpts)
		if *retain > 0 {
			svc.SetStore(tsdb.New(storeOpts))
		}
	}
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		fatal(err)
	}
	defer svc.Close()
	fmt.Printf("service listening on %s\n", svc.Addr())

	// Optional observability endpoint: Prometheus exposition, JSON series
	// API, health probes, and (with -pprof) the profiling handlers.
	var (
		am   *cluster.AgentMetrics
		osrv *obs.Server
	)
	if *httpAddr != "" {
		reg := obs.NewRegistry()
		svc.RegisterMetrics(reg)
		am = cluster.NewAgentMetrics(reg)
		opts := obs.DefaultServerOptions()
		opts.EnablePprof = *pprofFlag
		osrv = obs.NewServer(reg, opts)
		osrv.SetStore(svc.Store())
		osrv.SetHealth(func() obs.Health {
			h := svc.Health()
			if h.Ready && am.AnyDegraded() {
				h.Degraded = true
				h.Detail = "agent(s) serving local estimates"
			}
			return h
		})
		if err := osrv.Listen(*httpAddr); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics at http://%s/metrics (series API under /api/v1/)\n", osrv.Addr())
	}

	b, err := workload.Find(*bench)
	if err != nil {
		fatal(err)
	}

	var (
		mu  sync.Mutex
		sum struct {
			samples  int
			absErr   float64
			measured int
		}
	)
	var wg sync.WaitGroup
	for n := 0; n < *nodes; n++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			nodeID := fmt.Sprintf("node-%02d", id)
			node, err := platform.NewNode(platform.ARMConfig(), *seed+int64(id)*101)
			if err != nil {
				fatal(err)
			}
			agent := cluster.NewResilientAgent(svc.Addr(), nodeID, cluster.DefaultAgentOptions(), model)
			defer agent.Close()
			node.Attach(b)

			for t := 0; float64(t) < *duration; t++ {
				s := node.Step(1)
				var measured *float64
				if t%*miss == 0 {
					v := s.PNode
					measured = &v
				}
				est, err := agent.Send(s.Time, s.Counters.Slice(), measured)
				if err != nil {
					fatal(err)
				}
				if am != nil {
					am.Observe(agent)
				}
				mu.Lock()
				sum.samples++
				sum.absErr += math.Abs(est.PNode - s.PNode)
				if est.FromMeasurement {
					sum.measured++
				}
				mu.Unlock()
				if !*quiet && id == 0 {
					tag := " "
					if est.FromMeasurement {
						tag = "*"
					}
					fmt.Printf("%s t=%3.0fs%s node=%6.1fW (true %6.1f)  cpu=%5.1fW (true %5.1f)  mem=%5.1fW (true %5.1f)\n",
						nodeID, s.Time, tag, est.PNode, s.PNode, est.PCPU, s.PCPU, est.PMEM, s.PMEM)
				}
			}
		}(n)
	}
	wg.Wait()

	st := svc.Stats()
	fmt.Printf("\nmonitored %d nodes, %d samples (%d from IM readings)\n", st.Nodes, st.Samples, st.Measured)
	if sum.samples > 0 {
		fmt.Printf("mean absolute node-power error: %.2f W over %d samples\n", sum.absErr/float64(sum.samples), sum.samples)
	}
	ss := st.Store
	fmt.Printf("store: %d series, %d raw points, %d bytes (%.2f B/point, %.1fx vs 16 B uncompressed)\n",
		ss.Series, ss.Points, ss.Bytes, ss.BytesPerPoint, ss.CompressionRatio)
	fmt.Printf("query history with: highrpm-query -addr %s -node node-00 -channel p_cpu -res 10\n", svc.Addr())

	// Drain both servers gracefully: in-flight scrapes and replies finish,
	// whatever is still open after -grace is cut.
	if osrv != nil {
		if err := osrv.Shutdown(*grace); err != nil {
			fmt.Fprintf(os.Stderr, "highrpm-monitor: metrics shutdown: %v\n", err)
		}
	}
	if err := svc.Shutdown(*grace); err != nil {
		fmt.Fprintf(os.Stderr, "highrpm-monitor: service shutdown: %v\n", err)
	}
}

// flagGroups orders -help by subsystem (see internal/cliutil): flags
// registered but not listed here surface under "Other" so new knobs can
// never silently vanish from the help text.
var flagGroups = []cliutil.Group{
	{Title: "Simulation", Names: []string{"model", "nodes", "bench", "duration", "miss", "retain", "seed", "quiet"}},
	{Title: "Service hardening", Names: []string{"read-timeout", "write-timeout", "max-frame", "max-conns"}},
	{Title: "Durability", Names: []string{"data-dir", "fsync", "snapshot-every"}},
	{Title: "Observability & shutdown", Names: []string{"http", "pprof", "grace"}},
}

// loadOrTrain loads a persisted model or trains a compact one in-process.
func loadOrTrain(path string, miss int, seed int64) (*core.HighRPM, error) {
	if path != "" {
		fmt.Printf("loading model from %s\n", path)
		return core.Load(path)
	}
	fmt.Println("no -model given; training a compact model in-process...")
	gen := dataset.DefaultGenerateConfig()
	gen.SamplesPerSuite = 240
	gen.Seed = seed
	train := &dataset.Set{}
	for _, s := range workload.SuiteNames() {
		set, err := dataset.GenerateSuite(gen, s)
		if err != nil {
			return nil, err
		}
		train.Append(set)
	}
	opts := core.DefaultOptions()
	opts.SetMissInterval(miss)
	opts.Seed = seed
	return core.Train(train, opts)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "highrpm-monitor: %v\n", err)
	os.Exit(1)
}
