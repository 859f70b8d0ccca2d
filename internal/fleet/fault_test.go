package fleet

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"highrpm/internal/cluster"
	"highrpm/internal/cluster/faultnet"
	"highrpm/internal/leaktest"
)

// faultAgentOptions are tight enough that a faulted shard is detected,
// degraded, probed, and replayed within a test's patience.
func faultAgentOptions() cluster.AgentOptions {
	return cluster.AgentOptions{
		DialTimeout:    300 * time.Millisecond,
		RequestTimeout: 250 * time.Millisecond,
		BackoffMin:     50 * time.Millisecond,
		BackoffMax:     250 * time.Millisecond,
		SendRetries:    1,
		FailThreshold:  1,
		BufferLimit:    4096,
	}
}

// faultFixture is a 2-shard replicated fleet whose backend links run
// through faultnet proxies, plus a reference single service fed the same
// stream.
type faultFixture struct {
	r        *Router
	backends []*cluster.Service
	proxies  []*faultnet.Proxy
	ref      *cluster.Service
}

func startFaultFleet(t *testing.T) *faultFixture { return startFaultFleetN(t, 2) }

// startFaultFleetN is the fixture with n shards, every node replicated to
// all of them.
func startFaultFleetN(t *testing.T, n int) *faultFixture {
	return startFaultFleetWith(t, n, faultAgentOptions())
}

// startFaultFleetWith is startFaultFleetN with the pooled backend
// connections tuned by agent.
func startFaultFleetWith(t *testing.T, n int, agent cluster.AgentOptions) *faultFixture {
	t.Helper()
	f := &faultFixture{ref: startBackend(t)}
	top := Topology{}
	for i := 0; i < n; i++ {
		be := startBackend(t)
		p := faultnet.New(be.Addr())
		if err := p.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		f.backends = append(f.backends, be)
		f.proxies = append(f.proxies, p)
		top.Shards = append(top.Shards, Shard{Name: fmt.Sprintf("shard-%d", i), Addr: p.Addr()})
	}
	opts := DefaultTopologyOptions()
	opts.Replication = n
	opts.Agent = agent
	r, err := NewRouter(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.Logf = t.Logf
	if err := r.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	f.r = r
	return f
}

// runFaultScenario streams replicated (R=2) traffic for two nodes through
// the fleet, injects fault(shard) mid-ingest, heals with heal(), keeps
// streaming until the router drains its replay buffers, and asserts zero
// sample loss: every backend's store and the fleet's answers stay
// byte-identical to the reference service. Faults are injected between
// samples — the at-least-once replay cannot duplicate a frame that was
// never in flight — which is exactly the boundary a paused or partitioned
// shard presents in production. The scenario runs once per front-end
// codec: a binary front hop hands the replicas' agents the connection's
// framer scratch, which a degraded agent must copy before buffering. The
// reads are binary either way, the only codec a series travels in.
func runFaultScenario(t *testing.T, fault, heal func(t *testing.T, f *faultFixture, shard int)) {
	for _, codec := range frontCodecs {
		t.Run(codec, func(t *testing.T) { runFaultScenarioCodec(t, codec, fault, heal) })
	}
}

func runFaultScenarioCodec(t *testing.T, codec string, fault, heal func(t *testing.T, f *faultFixture, shard int)) {
	leaktest.Check(t)
	f := startFaultFleet(t)

	nodes := balancedNodes(t, f.r, 1) // one node owned by each shard
	const seconds = 40
	const faultAt, healAt = 10, 25
	const faultShard = 0

	type stream struct {
		samples []cluster.Sample
		fa, ra  *cluster.Agent
	}
	streams := make([]*stream, len(nodes))
	for ni, node := range nodes {
		fa := dialFront(t, f.r, node, codec)
		t.Cleanup(func() { fa.Close() })
		ra, err := cluster.Dial(f.ref.Addr(), node)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ra.Close() })
		streams[ni] = &stream{samples: genSamples(t, int64(500+ni), seconds+600), fa: fa, ra: ra}
	}

	sendSecond := func(i int) {
		t.Helper()
		for ni, s := range streams {
			smp := s.samples[i]
			fest, err := s.fa.Send(smp.Time, smp.PMC, smp.Measured)
			if err != nil {
				t.Fatalf("fleet send %s[%d]: %v", nodes[ni], i, err)
			}
			rest, err := s.ra.Send(smp.Time, smp.PMC, smp.Measured)
			if err != nil {
				t.Fatalf("ref send %s[%d]: %v", nodes[ni], i, err)
			}
			// The front-end keeps receiving service-grade estimates through
			// the outage: the live replica answers when the primary is down.
			if !sameEstimate(fest, rest) {
				t.Fatalf("estimate %s[%d]: fleet %+v, ref %+v", nodes[ni], i, fest, rest)
			}
		}
	}

	// Reads through the outage: the aggregate first, then every node, each
	// answer byte-identical to the reference's. Issued once with the fleet
	// healthy (which also opens the query connection the fault then kills),
	// once the instant the shard is gone — the router still believes it up, so
	// its pipelined group dies mid-flight and every node of it is re-read from
	// its follower — and once more after the router has marked it down.
	fq := dialFront(t, f.r, "query-client", cluster.CodecBinary)
	defer fq.Close()
	rq, err := cluster.Dial(f.ref.Addr(), "query-client")
	if err != nil {
		t.Fatal(err)
	}
	defer rq.Close()
	checkReads := func(when string, upTo int) {
		t.Helper()
		qs := []cluster.QueryRequest{{Channel: "p_node", From: 0, To: float64(upTo), ResolutionS: 1}}
		for _, node := range nodes {
			qs = append(qs, cluster.QueryRequest{NodeID: node, Channel: "p_node", From: 0, To: float64(upTo), ResolutionS: 1})
		}
		for _, q := range qs {
			fb, err := fq.Query(q)
			if err != nil {
				t.Fatalf("%s: fleet query %+v: %v", when, q, err)
			}
			rb, err := rq.Query(q)
			if err != nil {
				t.Fatalf("%s: ref query %+v: %v", when, q, err)
			}
			if fj, rj := mustJSON(t, fb), mustJSON(t, rb); fj != rj {
				t.Fatalf("%s: answer to %+v diverges:\nfleet %s\nref   %s", when, q, fj, rj)
			}
			if len(fb.Points) != upTo+1 {
				t.Fatalf("%s: %+v answered %d points, want %d", when, q, len(fb.Points), upTo+1)
			}
		}
	}

	for i := 0; i < seconds; i++ {
		switch i {
		case faultAt - 1:
			// The fault is meant to kill established query connections, so both
			// are opened first (a stats fan-out dials every shard), again if the
			// fixture's 300 ms dial budget was lost to a busy box.
			for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(f.r.opts.DialRetry) {
				_, _ = f.r.MergedStats() // the connections, not the answer, are the point
				opened := 0
				for _, st := range f.r.shards {
					if st.hasQuery.Load() {
						opened++
					}
				}
				if opened == len(f.r.shards) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d query connections opened", opened, len(f.r.shards))
				}
			}
			checkReads("before the fault", i-1)
		case faultAt:
			t.Logf("fault: injecting on shard %d at second %d", faultShard, i)
			fault(t, f, faultShard)
			checkReads("the instant the shard is gone", i-1)
		case faultAt + 5:
			checkReads("with the shard marked down", i-1)
		case healAt:
			t.Logf("fault: healing shard %d at second %d", faultShard, i)
			heal(t, f, faultShard)
		}
		sendSecond(i)
	}
	t.Logf("fault: main stream done, stats %+v", f.r.Stats())

	// Queries during the tail of the outage-recovery window still merge
	// correctly: reads drain to live replicas.
	agg := cluster.QueryRequest{Channel: "p_node", From: 0, To: seconds - 1, ResolutionS: 1}
	fb, err := fq.Query(agg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := rq.Query(agg)
	if err != nil {
		t.Fatal(err)
	}
	if fj, rj := mustJSON(t, fb), mustJSON(t, rb); fj != rj {
		t.Fatalf("post-fault aggregate diverges:\nfleet %s\nref   %s", fj, rj)
	}

	// Keep streaming until the degraded replicas replay their buffers —
	// replay rides the probe schedule, which only advances while samples
	// flow. Every extra second also goes to the reference so the stores
	// stay comparable.
	deadline := time.Now().Add(30 * time.Second)
	extra := seconds
	for {
		st := f.r.Stats()
		pending, degraded := 0, 0
		for _, sh := range st.Shards {
			pending += sh.Pending
			degraded += sh.Degraded
		}
		if pending == 0 && degraded == 0 {
			t.Logf("fault: drained after %d extra seconds", extra-seconds)
			break
		}
		if (extra-seconds)%50 == 0 {
			t.Logf("fault: draining, extra=%d pending=%d degraded=%d", extra-seconds, pending, degraded)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay never drained: %+v", st)
		}
		if extra >= seconds+600 {
			t.Fatalf("replay not drained after %d extra seconds: %+v", extra-seconds, st)
		}
		sendSecond(extra)
		extra++
		time.Sleep(10 * time.Millisecond)
	}
	total := extra

	if st := f.r.Stats(); st.FailedOver == 0 {
		t.Fatalf("no failovers counted through the outage: %+v", st)
	}

	// Zero loss: each backend's store independently holds every node's
	// complete series, byte-identical to the reference, and the fleet's
	// merged answers match.
	for _, node := range nodes {
		nq := cluster.QueryRequest{NodeID: node, Channel: "p_node", From: 0, To: float64(total - 1), ResolutionS: 1}
		want, err := rq.Query(nq)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Points) != total {
			t.Fatalf("reference has %d points for %s, want %d", len(want.Points), node, total)
		}
		for bi, be := range f.backends {
			ba, err := cluster.Dial(be.Addr(), "verify-client")
			if err != nil {
				t.Fatal(err)
			}
			got, err := ba.Query(nq)
			ba.Close()
			if err != nil {
				t.Fatalf("backend %d query %s: %v", bi, node, err)
			}
			if gj, wj := mustJSON(t, got), mustJSON(t, want); gj != wj {
				t.Fatalf("backend %d lost samples for %s:\ngot  %s\nwant %s", bi, node, gj, wj)
			}
		}
		gotFleet, err := fq.Query(nq)
		if err != nil {
			t.Fatal(err)
		}
		if gj, wj := mustJSON(t, gotFleet), mustJSON(t, want); gj != wj {
			t.Fatalf("fleet series for %s diverges:\ngot  %s\nwant %s", node, gj, wj)
		}
	}
	agg = cluster.QueryRequest{Channel: "p_node", From: 0, To: float64(total - 1), ResolutionS: 1}
	fb, err = fq.Query(agg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err = rq.Query(agg)
	if err != nil {
		t.Fatal(err)
	}
	if fj, rj := mustJSON(t, fb), mustJSON(t, rb); fj != rj {
		t.Fatalf("final aggregate diverges:\nfleet %s\nref   %s", fj, rj)
	}
}

// TestFleetSurvivesShardKill kills one shard's network mid-ingest (the
// proxy closes its listener and every connection) and rejoins it on the
// same address 15 seconds of traffic later.
func TestFleetSurvivesShardKill(t *testing.T) {
	var killedAddr string
	runFaultScenario(t,
		func(_ *testing.T, f *faultFixture, shard int) {
			killedAddr = f.proxies[shard].Addr()
			f.proxies[shard].Close()
		},
		func(t *testing.T, f *faultFixture, shard int) {
			p := faultnet.New(f.backends[shard].Addr())
			var err error
			for attempt := 0; attempt < 100; attempt++ {
				if err = p.Listen(killedAddr); err == nil {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			if err != nil {
				t.Fatalf("rebind %s: %v", killedAddr, err)
			}
			f.proxies[shard] = p
			t.Cleanup(func() { p.Close() })
		})
}

// TestFleetSurvivesShardBlackhole partitions one shard mid-ingest — the
// proxy keeps accepting but silently drops every byte, the failure only
// deadlines can detect — and lifts the partition 15 seconds later.
func TestFleetSurvivesShardBlackhole(t *testing.T) {
	runFaultScenario(t,
		func(_ *testing.T, f *faultFixture, shard int) { f.proxies[shard].BlackholeAll() },
		func(_ *testing.T, f *faultFixture, shard int) { f.proxies[shard].Restore() })
}

// TestDialGateOncePerRetry pins the dial gate: a shard that accepts and
// hangs up at once costs one attempt per connection slot per DialRetry —
// the node's owner slot for ingest, the shard's query slot for reads —
// however many requests arrive meanwhile, and the shard reads down.
func TestDialGateOncePerRetry(t *testing.T) {
	leaktest.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	served := make(chan struct{})
	go func() {
		defer close(served)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			c.Close()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-served
	})
	opts := DefaultTopologyOptions()
	opts.DialRetry = time.Hour
	opts.Agent = faultAgentOptions()
	r, err := NewRouter(Topology{Shards: []Shard{{Name: "hangup", Addr: ln.Addr().String()}}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	ag := dialFront(t, r, "gated-node", cluster.CodecBinary)
	defer ag.Close()
	q := cluster.QueryRequest{NodeID: "gated-node", Channel: "p_node", From: 0, To: 10, ResolutionS: 1}
	for i, smp := range genSamples(t, 61, 10) {
		if _, err := ag.Send(smp.Time, smp.PMC, smp.Measured); err == nil {
			t.Fatalf("send %d through a shard that hangs up succeeded", i)
		}
		if _, err := ag.Query(q); err == nil {
			t.Fatalf("query %d through a shard that hangs up succeeded", i)
		}
	}
	if _, err := ag.Stats(); err == nil {
		t.Fatal("stats through a shard that hangs up succeeded")
	}
	if got := accepted.Load(); got != 2 {
		t.Fatalf("the shard accepted %d connections, want 2: one per slot within DialRetry", got)
	}
	if st := r.Stats(); len(st.Shards) != 1 || st.Shards[0].Up {
		t.Fatalf("the shard that hangs up reads up: %+v", st.Shards)
	}
}
