package fleet

import (
	"bytes"
	"encoding/hex"
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

// The parent commit's frames for the raw and the rollup query
// TestRouterRawSeriesNeedsTheEcho asks over seedPinHistory — the frames
// cluster's TestRawSeriesNeedsTheEcho pins a service to, kind byte first.
const (
	parentRawSeries    = "05000370696e0006705f6e6f646500000001000000060000000000000000405680000000000040568000000000004056800000000000000000013ff00000000000004056900000000000405690000000000040569000000000000000000140000000000000007ff80000000000017ff80000000000017ff80000000000010000000140080000000000008000000000000000800000000000000080000000000000000000000140100000000000004056c000000000004056c000000000004056c000000000000000000140140000000000004056d000000000004056d000000000004056d0000000000000000001"
	parentRollupSeries = "05000370696e0006705f6e6f64650000003c00000003000000000000000040564c34115b1e6080000000000000004056e000000000000000003b404e0000000000004056b0cccccccccd40568000000000004056e000000000000000003c405e0000000000004056ae666666666640568000000000004056e000000000000000001e"
)

// seedPinHistory ingests, into each store, the history the parent frames
// were taken from: p_node with a NaN carrying a payload and a −0.
func seedPinHistory(t *testing.T, svcs ...*cluster.Service) {
	t.Helper()
	for _, svc := range svcs {
		for i := 0; i < 150; i++ {
			v := 90 + float64(i%7)*0.25
			switch i {
			case 2:
				v = math.Float64frombits(0x7ff8000000000001)
			case 3:
				v = math.Copysign(0, -1)
			}
			if err := svc.Store().Ingest("pin", float64(i), tsdb.Sample{PNode: v, PCPU: v / 2, PMEM: v / 4, PNodePrime: v, IPMI: math.NaN()}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRouterRawSeriesNeedsTheEcho: the router's shards were dialed by
// agents that offer the 16-byte raw point, so they answer its raw reads in
// kind 9. A front-end client that never offers it still gets the parent
// commit's frames byte for byte — the router re-encodes the raw series and
// relays the rollup as it is — while a client that offers gets the shard's
// own kind-9 frame relayed undecoded, and the rollup unchanged.
func TestRouterRawSeriesNeedsTheEcho(t *testing.T) {
	leaktest.Check(t)
	r, backends := startFleet(t, 1, DefaultTopologyOptions())
	seedPinHistory(t, backends[0])
	queries := [2]cluster.QueryRequest{
		{NodeID: "pin", Channel: "p_node", From: 0, To: 5, ResolutionS: 1},
		{NodeID: "pin", Channel: "p_node", From: 0, To: 149, ResolutionS: 60},
	}
	var parent [2][]byte
	for i, h := range []string{parentRawSeries, parentRollupSeries} {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		parent[i] = b
	}
	hello := cluster.Hello{NodeID: "frame-client", Codecs: []string{cluster.CodecBinary}}
	old := dialRawHello(t, r.Addr(), hello)
	before := r.Stats()
	for i, q := range queries {
		if got := old.queryFrame(q); !bytes.Equal(got, parent[i]) {
			t.Fatalf("%+v through the router to a client without the offer is not the parent's frame:\ngot  %x\nwant %x", q, got, parent[i])
		}
	}
	if st := r.Stats(); st.NodeQueries-before.NodeQueries != 2 || st.SeriesRelayed-before.SeriesRelayed != 1 {
		t.Fatalf("client without the offer: %d node queries, %d relayed undecoded; want 2, the rollup alone", st.NodeQueries-before.NodeQueries, st.SeriesRelayed-before.SeriesRelayed)
	}
	hello.RawSeries = true
	offering, direct := dialRawHello(t, r.Addr(), hello), dialRawHello(t, backends[0].Addr(), hello)
	before = r.Stats()
	raw := offering.queryFrame(queries[0])
	if want := direct.queryFrame(queries[0]); raw[0] != 9 || !bytes.Equal(raw, want) {
		t.Fatalf("raw series through the router to an offering client:\ngot  %x\nwant the shard's own %x", raw, want)
	}
	if got := offering.queryFrame(queries[1]); !bytes.Equal(got, parent[1]) {
		t.Fatalf("rollup through the router to an offering client changed:\ngot  %x\nwant %x", got, parent[1])
	}
	if st := r.Stats(); st.SeriesRelayed-before.SeriesRelayed != 2 {
		t.Fatalf("offering client: %d of 2 answers relayed undecoded", st.SeriesRelayed-before.SeriesRelayed)
	}
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
