// Command highrpm-fleet runs the horizontal scale-out front-end: a router
// that speaks the cluster wire protocol on one address while
// consistent-hash-sharding every node's telemetry across N backend HighRPM
// services. Compute-node agents dial the router exactly as they would a
// single service; aggregate queries and stats scatter-gather every shard
// and merge bit-identically to a single service's answer.
//
// Usage:
//
//	highrpm-fleet -shards ingest-a=10.0.0.1:9000,ingest-b=10.0.0.2:9000
//	              [-listen 127.0.0.1:9200] [-replication 2] [-dial-retry 1s]
//	              [-read-timeout 5m] [-max-conns 0]
//	              [-http 127.0.0.1:9090] [-pprof] [-grace 2s] [-duration 0]
//
// Each -shards entry is name=host:port (or a bare host:port, which names
// the shard after its index). The name is the shard's ring identity:
// renaming moves its keys, re-addressing does not. -replication R writes
// every node's stream to R distinct shards (ring owner plus clockwise
// followers) so any R-1 shard outages lose nothing; reads drain to live
// replicas automatically. Every shard contributes 64 points to the ring,
// and every backend connection offers the binary codec, falling back to
// JSON against a service without it.
//
// -http exposes the router on the observability endpoint: per-shard
// highrpm_fleet_shard_up/agents/degraded/pending gauges, routing and
// failover counters, the scatter-gather latency histogram, and /readyz
// wired to the router's health (not ready with no reachable shard,
// degraded while any shard is down or replaying). The router runs until
// SIGINT/SIGTERM — or for -duration, if set — then drains for -grace.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"highrpm/internal/cliutil"
	"highrpm/internal/cluster"
	"highrpm/internal/fleet"
	"highrpm/internal/obs"
)

// flagGroups orders -help by subsystem (see internal/cliutil).
var flagGroups = []cliutil.Group{
	{Title: "Topology", Names: []string{"shards", "replication"}},
	{Title: "Front-end hardening", Names: []string{"listen", "read-timeout", "write-timeout", "max-frame", "max-conns"}},
	{Title: "Backend connections", Names: []string{"dial-retry"}},
	{Title: "Observability & shutdown", Names: []string{"http", "pprof", "grace", "duration"}},
}

func main() {
	var (
		shardsFlag  = flag.String("shards", "", "comma-separated backend shards, each name=host:port or host:port (required)")
		replication = flag.Int("replication", 1, "distinct shards holding each node's stream (1: no replication)")

		listen       = flag.String("listen", "127.0.0.1:9200", "front-end address agents and query clients dial")
		readTimeout  = flag.Duration("read-timeout", cluster.DefaultServiceOptions().ReadTimeout, "reap a front-end connection after this long without a message (0: never)")
		writeTimeout = flag.Duration("write-timeout", cluster.DefaultServiceOptions().WriteTimeout, "bound writing one reply (0: unbounded)")
		maxFrame     = flag.Int("max-frame", cluster.DefaultServiceOptions().MaxFrame, "largest wire frame in bytes; lowers the 8 MiB cap, never raises it")
		maxConns     = flag.Int("max-conns", 0, "concurrent front-end connection cap (0: unlimited)")

		dialRetry = flag.Duration("dial-retry", fleet.DefaultTopologyOptions().DialRetry, "wait between dial attempts to a shard the router has never reached")

		httpAddr  = flag.String("http", "", "observability HTTP address, e.g. 127.0.0.1:9090 (empty: disabled)")
		pprofFlag = flag.Bool("pprof", false, "mount net/http/pprof on the observability endpoint")
		grace     = flag.Duration("grace", 2*time.Second, "graceful-shutdown drain for the router and HTTP endpoint")
		duration  = flag.Duration("duration", 0, "exit after this long (0: run until SIGINT/SIGTERM)")
	)
	flag.Usage = cliutil.GroupedUsage(flag.CommandLine, "highrpm-fleet", flagGroups)
	flag.Parse()

	top, err := parseShards(*shardsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "highrpm-fleet: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	opts := fleet.DefaultTopologyOptions()
	opts.Replication = *replication
	opts.DialRetry = *dialRetry
	opts.FrontEnd.ReadTimeout = *readTimeout
	opts.FrontEnd.WriteTimeout = *writeTimeout
	opts.FrontEnd.MaxFrame = *maxFrame
	opts.FrontEnd.MaxConns = *maxConns

	router, err := fleet.NewRouter(top, opts)
	if err != nil {
		fatal(err)
	}
	router.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "highrpm-fleet: "+format+"\n", args...)
	}
	if err := router.Listen(*listen); err != nil {
		fatal(err)
	}
	fmt.Printf("fleet router on %s: %d shards, replication %d\n",
		router.Addr(), len(top.Shards), router.Options().Replication)
	for _, sh := range top.Shards {
		fmt.Printf("  shard %-16s %s\n", sh.Name, sh.Addr)
	}

	var osrv *obs.Server
	if *httpAddr != "" {
		reg := obs.NewRegistry()
		router.RegisterMetrics(reg)
		mopts := obs.DefaultServerOptions()
		mopts.EnablePprof = *pprofFlag
		osrv = obs.NewServer(reg, mopts)
		osrv.SetHealth(router.Health)
		if err := osrv.Listen(*httpAddr); err != nil {
			fatal(err)
		}
		fmt.Printf("observability on http://%s (/metrics, /healthz, /readyz)\n", osrv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if *duration > 0 {
		select {
		case <-sig:
		case <-time.After(*duration):
		}
	} else {
		<-sig
	}
	signal.Stop(sig)

	fmt.Printf("draining for %s: %s\n", *grace, summary(router.Stats()))
	if osrv != nil {
		if err := osrv.Shutdown(*grace); err != nil {
			fmt.Fprintf(os.Stderr, "highrpm-fleet: obs shutdown: %v\n", err)
		}
	}
	if err := router.Shutdown(*grace); err != nil {
		fatal(err)
	}
}

// parseShards turns "a=host:port,host:port" into a topology; bare
// addresses are named after their position.
func parseShards(s string) (fleet.Topology, error) {
	var top fleet.Topology
	if strings.TrimSpace(s) == "" {
		return top, fmt.Errorf("-shards is required")
	}
	for i, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return top, fmt.Errorf("empty -shards entry at position %d", i)
		}
		name, addr := fmt.Sprintf("shard-%d", i), entry
		if eq := strings.IndexByte(entry, '='); eq >= 0 {
			name, addr = entry[:eq], entry[eq+1:]
			if name == "" {
				return top, fmt.Errorf("empty shard name in %q", entry)
			}
		}
		if addr == "" {
			return top, fmt.Errorf("empty shard address in %q", entry)
		}
		top.Shards = append(top.Shards, fleet.Shard{Name: name, Addr: addr})
	}
	return top, nil
}

func summary(st fleet.Stats) string {
	up := 0
	for _, sh := range st.Shards {
		if sh.Up {
			up++
		}
	}
	return fmt.Sprintf("%d/%d shards up, %d nodes, %d routed, %d replicated (%d samples relayed), %d failovers, %d scatter-gathers, %d node queries",
		up, len(st.Shards), st.Nodes, st.Routed, st.Replicated, st.Relayed, st.FailedOver, st.ScatterGathers, st.NodeQueries)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "highrpm-fleet: %v\n", err)
	os.Exit(1)
}
