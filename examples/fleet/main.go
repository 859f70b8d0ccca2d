// Fleet: shard one monitoring workload across two HighRPM backends behind
// the scale-out router, survive a backend outage with replication, and
// verify the fleet's merged answers are byte-identical to a single
// service fed the same samples.
//
// The walkthrough trains a compact model, starts two backend services plus
// a replicated (R=2) fleet router in front of them, and streams four
// simulated nodes through the router — agents dial the router exactly as
// they would a single service. Midway through, one backend is killed
// outright: estimates keep flowing (the surviving replica answers) and
// nothing is lost. At the end, the fleet's aggregate and stats are
// compared byte-for-byte against a reference service that saw the same
// stream.
//
//	go run ./examples/fleet
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"highrpm"
)

func main() {
	// 1. Train a compact model in-process (see examples/quickstart for the
	// full training story).
	gen := highrpm.DefaultGenerateConfig()
	gen.SamplesPerSuite = 150
	train := &highrpm.Set{}
	for _, suite := range []string{"HPCC", "SPEC"} {
		set, err := highrpm.GenerateSuite(gen, suite)
		if err != nil {
			log.Fatal(err)
		}
		train.Append(set)
	}
	topts := highrpm.DefaultOptions()
	topts.ActiveLearning = false
	model, err := highrpm.Train(train, topts)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Start two backend services — the existing single-box service,
	// unchanged — and a reference service that will see the same stream.
	var top highrpm.FleetTopology
	backends := make([]*highrpm.Service, 2)
	for i := range backends {
		svc := highrpm.NewService(model)
		if err := svc.Listen("127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		backends[i] = svc
		top.Shards = append(top.Shards, highrpm.FleetShard{
			Name: fmt.Sprintf("ingest-%c", 'a'+i), Addr: svc.Addr(),
		})
	}
	ref := highrpm.NewService(model)
	if err := ref.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}

	// 3. Front the backends with a replicated fleet router. R=2 writes
	// every node's stream to both shards (ring owner + follower), so
	// either backend can die without losing a sample.
	opts := highrpm.DefaultTopologyOptions()
	opts.Replication = 2
	router, err := highrpm.NewRouter(top, opts)
	if err != nil {
		log.Fatal(err)
	}
	router.Logf = func(string, ...any) {} // keep the demo output clean
	if err := router.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet router on %s fronting %d shards (replication 2)\n", router.Addr(), len(top.Shards))
	for _, sh := range top.Shards {
		fmt.Printf("  shard %-10s %s\n", sh.Name, sh.Addr)
	}

	// 4. Stream four simulated nodes through the router — and, in
	// parallel, through the reference service. At second 30 one backend is
	// killed; the router fails its traffic over to the surviving replica.
	bench, err := highrpm.FindBenchmark("HPCC/FFT")
	if err != nil {
		log.Fatal(err)
	}
	const nodes, seconds, killAt = 4, 60, 30
	type sim struct {
		node     *highrpm.Node
		fa, ra   *highrpm.Agent
		lastFest highrpm.Estimate
	}
	sims := make([]*sim, nodes)
	for n := range sims {
		nodeID := fmt.Sprintf("node-%02d", n)
		node, err := highrpm.NewNode(highrpm.ARMPlatform(), int64(n)*101+1)
		if err != nil {
			log.Fatal(err)
		}
		node.Attach(bench)
		fa, err := highrpm.DialService(router.Addr(), nodeID)
		if err != nil {
			log.Fatal(err)
		}
		ra, err := highrpm.DialService(ref.Addr(), nodeID)
		if err != nil {
			log.Fatal(err)
		}
		sims[n] = &sim{node: node, fa: fa, ra: ra}
	}
	for t := 0; t < seconds; t++ {
		if t == killAt {
			fmt.Printf("\nsecond %d: killing shard %s mid-ingest\n", t, top.Shards[0].Name)
			if err := backends[0].Close(); err != nil {
				log.Fatal(err)
			}
		}
		for _, s := range sims {
			smp := s.node.Step(1)
			var measured *float64
			if t%10 == 0 {
				v := smp.PNode
				measured = &v
			}
			fest, err := s.fa.Send(smp.Time, smp.Counters.Slice(), measured)
			if err != nil {
				log.Fatal(err)
			}
			rest, err := s.ra.Send(smp.Time, smp.Counters.Slice(), measured)
			if err != nil {
				log.Fatal(err)
			}
			if fest != rest {
				log.Fatalf("estimate diverged at t=%d: fleet %+v, ref %+v", t, fest, rest)
			}
			s.lastFest = fest
		}
	}
	for _, s := range sims {
		if err := s.fa.Close(); err != nil {
			log.Fatal(err)
		}
		if err := s.ra.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("streamed %d nodes × %d s through the outage; every estimate matched the reference\n", nodes, seconds)
	fmt.Printf("last estimates: node-00 %.1f W, node-03 %.1f W\n", sims[0].lastFest.PNode, sims[3].lastFest.PNode)

	// 5. Query through the router: the cluster-wide aggregate
	// scatter-gathers the surviving shards and merges per-node series in
	// sorted node order — byte-identical to the single reference service.
	fq, err := highrpm.DialService(router.Addr(), "fleet-demo")
	if err != nil {
		log.Fatal(err)
	}
	defer fq.Close()
	rq, err := highrpm.DialService(ref.Addr(), "fleet-demo")
	if err != nil {
		log.Fatal(err)
	}
	defer rq.Close()
	q := highrpm.QueryRequest{Channel: "p_node", From: 0, To: seconds - 1, ResolutionS: 10}
	fb, err := fq.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	rb, err := rq.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fj, _ := json.Marshal(fb)
	rj, _ := json.Marshal(rb)
	if string(fj) != string(rj) {
		log.Fatalf("aggregate diverged:\nfleet %s\nref   %s", fj, rj)
	}
	fmt.Printf("\ncluster aggregate (10 s rollup) matches the reference byte-for-byte:\n  %s\n", fj)

	// 6. The router's own accounting shows what the outage cost: every
	// post-kill write failed over to the surviving replica.
	st := router.Stats()
	fmt.Printf("\nrouter stats: %d routed, %d replicated (%d samples recorded from the primary's estimate), %d failovers, %d scatter-gathers\n",
		st.Routed, st.Replicated, st.Relayed, st.FailedOver, st.ScatterGathers)
	for _, sh := range st.Shards {
		fmt.Printf("  shard %-10s up=%-5v agents=%d degraded=%d pending=%d\n",
			sh.Name, sh.Up, sh.NodeAgents, sh.Degraded, sh.Pending)
	}
	if h := router.Health(); h.Degraded {
		fmt.Printf("health: ready but degraded (%s) — the fleet serves on while %s is down\n", h.Detail, top.Shards[0].Name)
	}

	// 7. Drain everything gracefully.
	if err := router.Shutdown(2 * time.Second); err != nil {
		log.Fatal(err)
	}
	for _, svc := range backends[1:] {
		if err := svc.Shutdown(2 * time.Second); err != nil {
			log.Fatal(err)
		}
	}
	if err := ref.Shutdown(2 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Println("shut down cleanly")
}
