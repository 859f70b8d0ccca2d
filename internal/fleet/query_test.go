package fleet

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"highrpm/internal/cluster"
	"highrpm/internal/leaktest"
	"highrpm/internal/tsdb"
)

// patientDialOptions are faultAgentOptions with room to dial: no test here
// faults a dial, and the 300 ms the fault matrix allows for dial, Hello and
// model fetch is not always enough under the race detector on a busy box.
func patientDialOptions() cluster.AgentOptions {
	o := faultAgentOptions()
	o.DialTimeout = 5 * time.Second
	return o
}

// TestStatsDoesNotWaitForShardQuery: Router.Stats — a /metrics scrape, a
// readiness probe, highrpm-query -stats — returns at once while a query is
// parked on a blackholed shard. The query holds the shard's connection lock
// for its whole round trip (a pipelined group holds it for a whole group);
// Stats used to take that lock to look at the connection, and so stalled for
// the rest of RequestTimeout exactly when an operator scrapes.
func TestStatsDoesNotWaitForShardQuery(t *testing.T) {
	leaktest.Check(t)
	agent := patientDialOptions()
	agent.RequestTimeout = 3 * time.Second
	f := startFaultFleetWith(t, 2, agent)
	const node = "node-parked"
	fa := dialFront(t, f.r, node, cluster.CodecBinary)
	defer fa.Close()
	for _, smp := range genSamples(t, 61, 3) {
		if _, err := fa.Send(smp.Time, smp.PMC, smp.Measured); err != nil {
			t.Fatal(err)
		}
	}
	q := cluster.QueryRequest{NodeID: node, Channel: "p_node", From: 0, To: 10, ResolutionS: 1}
	if _, err := fa.Query(q); err != nil { // opens the query connection the fault will park
		t.Fatal(err)
	}
	healthy := time.Now()
	f.r.Stats()
	t.Logf("Stats with the fleet healthy: %v", time.Since(healthy))

	target := f.r.queryTarget(node)
	f.proxies[target].BlackholeAll()
	answered := make(chan error, 1)
	go func() {
		_, err := fa.Query(q)
		answered <- err
	}()
	// Parked means the query holds the shard's connection lock.
	st := f.r.shards[target]
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if !st.qmu.TryLock() {
			break
		}
		st.qmu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("the query never reached the shard")
		}
	}
	start := time.Now()
	got := f.r.Stats()
	took := time.Since(start)
	select {
	case err := <-answered:
		t.Fatalf("the query returned (%v) before Stats was measured: nothing was parked", err)
	default:
	}
	if took > agent.RequestTimeout/6 {
		t.Fatalf("Stats took %v behind a query parked on a blackholed shard (RequestTimeout %v)", took, agent.RequestTimeout)
	}
	if sh := got.Shards[target]; sh.NodeAgents == 0 {
		t.Fatalf("Stats lost sight of the shard's query connection: %+v", sh)
	}
	// The follower answers once the parked read gives up.
	if err := <-answered; err != nil {
		t.Fatalf("the parked query did not fail over: %v", err)
	}
	f.proxies[target].Restore()
}

// seedOutOfBand ingests seconds of history for node straight into each
// store, the same values everywhere.
func seedOutOfBand(t *testing.T, node string, seconds int, svcs ...*cluster.Service) {
	t.Helper()
	for _, svc := range svcs {
		for i := 0; i < seconds; i++ {
			v := 70 + float64(i%13)
			if err := svc.Store().Ingest(node, float64(i), tsdb.Sample{PNode: v, PCPU: v / 2, PMEM: v / 4, PNodePrime: v, IPMI: math.NaN()}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestScatterGroupFallback pins what happens to one node of a pipelined
// group without disturbing the rest. A node its primary does not hold yet is
// rejected there and read from its follower, while the group's other replies
// stand (the primary is not asked for them twice); a node no replica holds
// fails the aggregate with the primary's rejection, the error a single-node
// query for it returns; and when the shard dies under a group in flight,
// every node of the group is read from its follower. The answers stay
// byte-identical to the reference service's.
func TestScatterGroupFallback(t *testing.T) {
	for _, codec := range frontCodecs {
		t.Run(codec, func(t *testing.T) { testScatterGroupFallback(t, codec) })
	}
}

func testScatterGroupFallback(t *testing.T, codec string) {
	leaktest.Check(t)
	f := startFaultFleetWith(t, 2, patientDialOptions())
	const seconds = 20
	nodes := balancedNodes(t, f.r, 3)
	for ni, node := range nodes {
		fa := dialFront(t, f.r, node, codec)
		ra, err := cluster.Dial(f.ref.Addr(), node)
		if err != nil {
			t.Fatal(err)
		}
		for _, smp := range genSamples(t, int64(900+ni), seconds) {
			if _, err := fa.Send(smp.Time, smp.PMC, smp.Measured); err != nil {
				t.Fatal(err)
			}
			if _, err := ra.Send(smp.Time, smp.PMC, smp.Measured); err != nil {
				t.Fatal(err)
			}
		}
		fa.Close()
		ra.Close()
	}
	// ownedBy names a node the ring gives shard 0 as primary.
	ownedBy0 := func(prefix string) string {
		for i := 0; ; i++ {
			if name := fmt.Sprintf("%s-%d", prefix, i); f.r.ring.owner(name) == 0 {
				return name
			}
		}
	}
	fq := dialFront(t, f.r, "query-client", codec)
	defer fq.Close()
	rq, err := cluster.Dial(f.ref.Addr(), "query-client")
	if err != nil {
		t.Fatal(err)
	}
	defer rq.Close()
	agg := cluster.QueryRequest{Channel: "p_node", From: 0, To: seconds - 1, ResolutionS: 1}
	requireSameAggregate := func(when string) {
		t.Helper()
		fb, err := fq.Query(agg)
		if err != nil {
			t.Fatalf("%s: fleet aggregate: %v", when, err)
		}
		rb, err := rq.Query(agg)
		if err != nil {
			t.Fatalf("%s: ref aggregate: %v", when, err)
		}
		if fj, rj := mustJSON(t, fb), mustJSON(t, rb); fj != rj {
			t.Fatalf("%s: aggregate diverges:\nfleet %s\nref   %s", when, fj, rj)
		}
	}
	storeQueries := func(shard int) int64 { return f.backends[shard].Stats().Store.Queries }

	// "late" is in the scatter set and on its follower, not yet on its primary
	// — a replay still catching up looks like this.
	late := ownedBy0("late")
	seedOutOfBand(t, late, seconds, f.backends[1], f.ref)
	f.r.routeFor(late).recorded.Store(true)
	q0, q1 := storeQueries(0), storeQueries(1)
	requireSameAggregate("one node missing from its primary")
	if d0, d1 := storeQueries(0)-q0, storeQueries(1)-q1; d0 != 3 || d1 != 4 {
		t.Fatalf("shard 0 served %d series and shard 1 %d, want 3 (its group, late refused) and 4 (its group and late)", d0, d1)
	}

	// "ghost" is in the scatter set and in no store.
	ghost := ownedBy0("ghost")
	f.r.routeFor(ghost).recorded.Store(true)
	_, aggErr := fq.Query(agg)
	nq := agg
	nq.NodeID = ghost
	_, nodeErr := fq.Query(nq)
	var ase, nse *cluster.ServiceError
	if !errors.As(aggErr, &ase) || !errors.As(nodeErr, &nse) || ase.Message != nse.Message {
		t.Fatalf("aggregate over a node nobody holds: %v; single-node query for it: %v; want the same rejection", aggErr, nodeErr)
	}
	if want := fmt.Sprintf("tsdb: no history for node %q", ghost); ase.Message != want {
		t.Fatalf("rejection reads %q, want the primary's %q", ase.Message, want)
	}
	f.r.routeFor(ghost).recorded.Store(false)

	// The shard dies with its group in flight: the router still believes it
	// up, groups four nodes onto it, and the first reply never comes.
	f.proxies[0].BlackholeAll()
	q1 = storeQueries(1)
	requireSameAggregate("primary blackholed under its group")
	if d1 := storeQueries(1) - q1; d1 != int64(len(nodes)+1) {
		t.Fatalf("the follower served %d series, want all %d", d1, len(nodes)+1)
	}
	f.proxies[0].Restore()
}

// TestRouterIsNoShardNode: the router's query connection to a shard says
// Hello with an empty node ID, so a node query, a stats call and a model
// fetch through the router leave every shard with no node and no node
// connection. And the router refuses the node IDs a service refuses, in
// the service's words, because both run the same cluster.Server.
func TestRouterIsNoShardNode(t *testing.T) {
	leaktest.Check(t)
	r, backends := startFleet(t, 2, DefaultTopologyOptions())
	qa := dialFront(t, r, "query-client", cluster.CodecBinary)
	defer qa.Close()
	if _, err := qa.Query(cluster.QueryRequest{NodeID: "nobody", Channel: "p_node", From: 0, To: 10, ResolutionS: 1}); err != nil && !isRejection(err) {
		t.Fatal(err)
	}
	if _, err := qa.Stats(); err != nil {
		t.Fatal(err)
	}
	if _, err := qa.FetchModel(); err != nil {
		t.Fatal(err)
	}
	for i, be := range backends {
		if st := be.Stats(); st.Nodes != 0 || st.NodeConns != nil {
			t.Fatalf("shard %d counts %d nodes, node connections %v: the router registered itself", i, st.Nodes, st.NodeConns)
		}
	}

	ref := startBackend(t)
	pmc := genSamples(t, 1, 1)[0].PMC
	for _, node := range []string{"", strings.Repeat("n", tsdb.MaxNodeIDLen+1)} {
		fa := dialFront(t, r, node, cluster.CodecBinary)
		ra, err := cluster.Dial(ref.Addr(), node)
		if err != nil {
			t.Fatal(err)
		}
		var fse, rse *cluster.ServiceError
		_, ferr := fa.Send(0, pmc, nil)
		_, rerr := ra.Send(0, pmc, nil)
		fa.Close()
		ra.Close()
		if !errors.As(ferr, &fse) || !errors.As(rerr, &rse) || fse.Message != rse.Message {
			t.Fatalf("%d-byte node ID: router answered %v, service %v; want the same refusal", len(node), ferr, rerr)
		}
	}
	if st, err := qa.Stats(); err != nil || st.Nodes != 1 {
		t.Fatalf("router counts %d nodes (err %v), want query-client alone", st.Nodes, err)
	}
}
