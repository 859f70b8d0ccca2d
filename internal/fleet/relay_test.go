package fleet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"highrpm/internal/cluster"
	"highrpm/internal/cluster/faultnet"
	"highrpm/internal/leaktest"
	"highrpm/internal/tsdb"
)

// Tests for the relayed estimate: with R > 1 the primary infers, its answer
// rides the replicated sample, and followers only advance monitor state.

// inferred sums Samples − Relayed over the backends: the samples the models
// actually ran on, fleet-wide.
func inferred(backends []*cluster.Service) (n int64) {
	for _, be := range backends {
		st := be.Stats()
		n += st.Samples - st.Relayed
	}
	return n
}

// relayedTo sums the backends' Relayed counters.
func relayedTo(backends []*cluster.Service) (n int64) {
	for _, be := range backends {
		n += be.Stats().Relayed
	}
	return n
}

// requireReplicasMatch queries every replica of every node directly, on
// every channel, and requires the wire bodies byte-identical to the
// reference service's — p_node_prime included, which each replica derives
// from its own monitor.
func requireReplicasMatch(t *testing.T, r *Router, backends []*cluster.Service, ref *cluster.Service, nodes []string, to float64) {
	t.Helper()
	ra, err := cluster.Dial(ref.Addr(), "verify-client")
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	for _, node := range nodes {
		for _, idx := range r.ring.owners(node, r.opts.Replication) {
			ba, err := cluster.Dial(backends[idx].Addr(), "verify-client")
			if err != nil {
				t.Fatal(err)
			}
			for _, ch := range tsdb.Channels() {
				q := cluster.QueryRequest{NodeID: node, Channel: string(ch), From: 0, To: to, ResolutionS: 1}
				want, werr := ra.Query(q)
				got, gerr := ba.Query(q)
				if werr != nil || gerr != nil {
					ba.Close()
					t.Fatalf("query %s/%s: reference err %v, backend %d err %v", node, ch, werr, idx, gerr)
				}
				if gj, wj := mustJSON(t, got), mustJSON(t, want); gj != wj {
					ba.Close()
					t.Fatalf("backend %d series %s/%s diverges from the reference:\ngot  %s\nwant %s", idx, node, ch, gj, wj)
				}
			}
			ba.Close()
		}
	}
}

// batchAgent dials addr as node with 8-sample Record batching.
func batchAgent(t *testing.T, addr, node, codec string) *cluster.Agent {
	t.Helper()
	ag, err := cluster.DialCodec(addr, node, codec, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ag.Close() })
	ag.SetBatching(cluster.BatchOptions{MaxSamples: 8})
	return ag
}

// recordBoth records one sample on the fleet agent and the reference agent
// and requires whatever estimates a flush returned to be identical.
func recordBoth(t *testing.T, fa, ra *cluster.Agent, smp cluster.Sample) {
	t.Helper()
	fests, ferr := fa.Record(smp.Time, smp.PMC, smp.Measured)
	rests, rerr := ra.Record(smp.Time, smp.PMC, smp.Measured)
	if ferr != nil || rerr != nil {
		t.Fatalf("record t=%g: fleet err %v, ref err %v", smp.Time, ferr, rerr)
	}
	if len(fests) != len(rests) {
		t.Fatalf("record t=%g: fleet flushed %d estimates, ref %d", smp.Time, len(fests), len(rests))
	}
	for i := range fests {
		if !sameEstimate(fests[i], rests[i]) {
			t.Fatalf("estimate t=%g: fleet %+v, ref %+v", fests[i].Time, fests[i], rests[i])
		}
	}
}

// TestFleetInfersOncePerSample: a replicated fleet runs the models once per
// front-end sample, measured ones included — the backends' summed
// Samples − Relayed equals what the agents sent — while every replica's
// store stays byte-identical to a single service fed the same stream.
func TestFleetInfersOncePerSample(t *testing.T) {
	for _, codec := range frontCodecs {
		for _, replication := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/R=%d", codec, replication), func(t *testing.T) {
				testFleetInfersOncePerSample(t, codec, replication)
			})
		}
	}
}

func testFleetInfersOncePerSample(t *testing.T, codec string, replication int) {
	leaktest.Check(t)
	opts := DefaultTopologyOptions()
	opts.Replication = replication
	r, backends := startFleet(t, 3, opts)
	ref := startBackend(t)
	nodes := balancedNodes(t, r, 1) // one node whose primary is each shard

	// Batches of 8 with an IM reading every tenth second: every batch goes
	// to the primary first and each of its samples is inferred by the
	// primary alone.
	const seconds = 48
	for ni, node := range nodes {
		fa, ra := batchAgent(t, r.Addr(), node, codec), batchAgent(t, ref.Addr(), node, cluster.CodecBinary)
		for _, smp := range genSamples(t, int64(700+ni), seconds) {
			recordBoth(t, fa, ra, smp)
		}
	}
	sent := int64(len(nodes) * seconds)
	if got := inferred(backends); got != sent {
		t.Fatalf("batched: models ran on %d samples fleet-wide, front end sent %d", got, sent)
	}
	wantRelayed := sent * int64(replication-1)
	if got := relayedTo(backends); got != wantRelayed {
		t.Fatalf("batched: backends recorded %d relayed samples, want %d", got, wantRelayed)
	}
	if st := r.Stats(); st.Relayed != wantRelayed || st.Replicated != int64(len(nodes)*seconds/8*(replication-1)) {
		t.Fatalf("batched: router counters %+v, want %d relayed", st, wantRelayed)
	}

	// The same again one Sample frame at a time: a second that carries an
	// IM reading is relayed like any other, so every second is inferred
	// once.
	var measured int64
	for ni, node := range nodes {
		fa := dialFront(t, r, node, codec)
		ra, err := cluster.Dial(ref.Addr(), node)
		if err != nil {
			fa.Close()
			t.Fatal(err)
		}
		for i, smp := range genSamples(t, int64(700+ni), 2*seconds)[seconds:] {
			if smp.Measured != nil {
				measured++
			}
			fest, ferr := fa.Send(smp.Time, smp.PMC, smp.Measured)
			rest, rerr := ra.Send(smp.Time, smp.PMC, smp.Measured)
			if ferr != nil || rerr != nil || !sameEstimate(fest, rest) {
				t.Fatalf("send %s[%d]: fleet %+v (%v), ref %+v (%v)", node, i, fest, ferr, rest, rerr)
			}
		}
		fa.Close()
		ra.Close()
	}
	if measured == 0 {
		t.Fatal("the single-frame stream carried no IM reading")
	}
	if got, want := inferred(backends), 2*sent; got != want {
		t.Fatalf("single: models ran on %d samples fleet-wide, want %d (%d of them measured)", got, want, measured)
	}
	if got, want := relayedTo(backends), 2*wantRelayed; got != want {
		t.Fatalf("single: backends recorded %d relayed samples, want %d", got, want)
	}
	requireReplicasMatch(t, r, backends, ref, nodes, 2*seconds)
}

// TestFleetRelayBoundaries pins where the relay must not reach — a batch
// the primary rejects, and estimates a front-end peer attaches itself — and
// that it reaches all-measured traffic: at R = 2 and R = 3 every replica
// holds every node, byte-identical to the reference on all five channels.
func TestFleetRelayBoundaries(t *testing.T) {
	for _, codec := range frontCodecs {
		t.Run(codec, func(t *testing.T) {
			for _, replication := range []int{2, 3} {
				t.Run(fmt.Sprintf("R=%d", replication), func(t *testing.T) { testFleetRelayBoundaries(t, codec, replication) })
			}
		})
	}
}

func testFleetRelayBoundaries(t *testing.T, codec string, replication int) {
	leaktest.Check(t)
	opts := DefaultTopologyOptions()
	opts.Replication = replication
	r, backends := startFleet(t, replication, opts) // every shard owns every node
	ref := startBackend(t)

	// A batch whose sample 5 is malformed: the primary records the first
	// five and rejects; the followers must be sent it plain, reject it at
	// the same sample, and hold the same five — and the front end reads the
	// single service's own error.
	const bad = 5
	samples := genSamples(t, 41, 8)
	samples[bad].PMC = []float64{1, 2}
	fa, ra := batchAgent(t, r.Addr(), "node-rejected", codec), batchAgent(t, ref.Addr(), "node-rejected", cluster.CodecBinary)
	var ferr, rerr error
	for _, smp := range samples {
		if _, ferr = fa.Record(smp.Time, smp.PMC, smp.Measured); ferr != nil {
			break
		}
	}
	for _, smp := range samples {
		if _, rerr = ra.Record(smp.Time, smp.PMC, smp.Measured); rerr != nil {
			break
		}
	}
	var fse, rse *cluster.ServiceError
	if !errors.As(ferr, &fse) || !errors.As(rerr, &rse) || fse.Message != rse.Message {
		t.Fatalf("rejected batch: fleet err %v, ref err %v, want the same service error", ferr, rerr)
	}
	for bi, be := range backends {
		if st := be.Stats(); st.Estimates != bad || st.Relayed != 0 {
			t.Fatalf("backend %d after the rejected batch: %d estimates, %d relayed, want the %d-sample prefix inferred locally", bi, st.Estimates, st.Relayed, bad)
		}
	}
	requireReplicasMatch(t, r, backends, ref, []string{"node-rejected"}, 100)

	// Every sample carries an IM reading: the primary still answers first,
	// and its estimates — the SRR split included — ride to every follower.
	fa, ra = batchAgent(t, r.Addr(), "node-dense", codec), batchAgent(t, ref.Addr(), "node-dense", cluster.CodecBinary)
	for _, smp := range genSamples(t, 42, 16) {
		v := smp.PMC[0] * 1e-9
		smp.Measured = &v
		recordBoth(t, fa, ra, smp)
	}
	wantRelayed := int64(16 * (replication - 1))
	if got := relayedTo(backends); got != wantRelayed || r.Stats().Relayed != wantRelayed {
		t.Fatalf("all-measured batches: backends recorded %d relayed samples, router counted %d, want %d", got, r.Stats().Relayed, wantRelayed)
	}
	for bi, be := range backends {
		if st := be.Stats(); st.Estimates != bad+16 {
			t.Fatalf("backend %d holds %d estimates, want %d", bi, st.Estimates, bad+16)
		}
	}
	requireReplicasMatch(t, r, backends, ref, []string{"node-dense"}, 100)

	// A front-end peer attaches estimates of its own, to a single sample
	// and to a batch: the router drops them, the primary infers, and only
	// the primary's answer travels on to the followers.
	bogus := &cluster.RelayedEstimate{PNode: 1, PCPU: 2, PMEM: 3}
	fr := dialForger(t, r.Addr(), "node-forged", codec)
	rr, err := cluster.Dial(ref.Addr(), "node-forged")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	forged := genSamples(t, 43, 12)
	before := inferred(backends)
	for _, smp := range forged[:4] {
		fest := fr.send(smp, bogus)
		rest, err := rr.Send(smp.Time, smp.PMC, smp.Measured)
		if err != nil {
			t.Fatal(err)
		}
		if !sameEstimate(fest, rest) {
			t.Fatalf("forged sample t=%g: fleet answered %+v, ref %+v", smp.Time, fest, rest)
		}
	}
	var batch []cluster.BatchSample
	for _, smp := range forged[4:] {
		batch = append(batch, cluster.BatchSample{Time: smp.Time, PMC: smp.PMC, Measured: smp.Measured, Relayed: bogus})
	}
	fests := fr.sendBatch(batch)
	if len(fests) != len(batch) {
		t.Fatalf("forged batch: %d estimates, want %d", len(fests), len(batch))
	}
	for i, smp := range forged[4:] {
		rest, err := rr.Send(smp.Time, smp.PMC, smp.Measured)
		if err != nil {
			t.Fatal(err)
		}
		if !sameEstimate(fests[i], rest) {
			t.Fatalf("forged batch[%d]: fleet answered %+v, ref %+v", i, fests[i], rest)
		}
	}
	if got, want := inferred(backends)-before, int64(len(forged)); got != want {
		t.Fatalf("forged estimates: models ran on %d samples, want %d — the primary must infer each", got, want)
	}
	requireReplicasMatch(t, r, backends, ref, []string{"node-forged"}, 100)
}

// forger is a front-end peer that attaches estimates of its own. On binary
// it is a ResilientAgent, whose relayed sends are what the router's own
// backend hop runs; every agent offers binary, so on JSON it writes the
// envelopes itself.
type forger struct {
	t    *testing.T
	node string
	ag   *cluster.ResilientAgent
	raw  *rawClient
}

func dialForger(t *testing.T, addr, node, codec string) *forger {
	t.Helper()
	f := &forger{t: t, node: node}
	if codec == cluster.CodecJSON {
		f.raw = dialRawHello(t, addr, cluster.Hello{NodeID: node})
		return f
	}
	ag, err := cluster.DialResilient(addr, node, cluster.DefaultAgentOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ag.Close() })
	f.ag = ag
	return f
}

// call writes one JSON request and decodes its reply into out.
func (f *forger) call(kind cluster.MsgKind, body, out any) {
	f.t.Helper()
	if err := cluster.WriteMsg(f.raw.conn, kind, body); err != nil {
		f.t.Fatal(err)
	}
	env, err := cluster.ReadMsg(f.raw.r)
	if err == nil {
		err = cluster.DecodeBody(env, out)
	}
	if err != nil {
		f.t.Fatal(err)
	}
}

func (f *forger) send(smp cluster.Sample, rel *cluster.RelayedEstimate) cluster.Estimate {
	f.t.Helper()
	if f.ag != nil {
		est, err := f.ag.SendRelayed(smp.Time, smp.PMC, smp.Measured, rel)
		if err != nil {
			f.t.Fatal(err)
		}
		return est
	}
	smp.NodeID, smp.Relayed = f.node, rel
	var est cluster.Estimate
	f.call(cluster.KindSample, smp, &est)
	return est
}

func (f *forger) sendBatch(samples []cluster.BatchSample) []cluster.Estimate {
	f.t.Helper()
	if f.ag != nil {
		ests, err := f.ag.SendSamples(samples)
		if err != nil {
			f.t.Fatal(err)
		}
		return ests
	}
	var eb cluster.EstimateBatch
	f.call(cluster.KindRecordBatch, cluster.RecordBatch{NodeID: f.node, Samples: samples}, &eb)
	return eb.Estimates
}

// TestFleetRelayAcrossPrimaryKill: inference-once holds before a shard is
// killed and again after it rejoined and caught up; through the outage the
// front end keeps receiving the reference's estimates (a follower that only
// ever Observed takes over and infers bit-identically, a degraded follower
// buffers the primary's estimates and replays them), and at the end every
// replica is byte-identical to the reference.
func TestFleetRelayAcrossPrimaryKill(t *testing.T) {
	for _, replication := range []int{2, 3} {
		t.Run(fmt.Sprintf("R=%d", replication), func(t *testing.T) { testFleetRelayAcrossPrimaryKill(t, replication) })
	}
}

func testFleetRelayAcrossPrimaryKill(t *testing.T, replication int) {
	leaktest.Check(t)
	f := startFaultFleetN(t, replication)
	nodes := balancedNodes(t, f.r, 1) // shard 0 is primary for one node, follower for the rest
	type stream struct {
		samples []cluster.Sample
		fa, ra  *cluster.Agent
	}
	streams := make([]*stream, len(nodes))
	for ni, node := range nodes {
		streams[ni] = &stream{
			samples: genSamples(t, int64(800+ni), 8*400),
			fa:      batchAgent(t, f.r.Addr(), node, cluster.CodecBinary),
			ra:      batchAgent(t, f.ref.Addr(), node, cluster.CodecBinary),
		}
	}
	next := 0 // batches sent per node so far
	sendBatches := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			for _, s := range streams {
				for _, smp := range s.samples[8*next : 8*next+8] {
					recordBoth(t, s.fa, s.ra, smp)
				}
			}
			next++
		}
	}
	// phase sends n batches per node and requires the models to have run
	// exactly once per sample sent.
	phase := func(name string, n int) {
		t.Helper()
		before := inferred(f.backends)
		sendBatches(n)
		if got, want := inferred(f.backends)-before, int64(n*8*len(nodes)); got != want {
			t.Fatalf("%s: models ran on %d samples fleet-wide, front end sent %d", name, got, want)
		}
	}

	phase("before the kill", 4)

	killedAddr := f.proxies[0].Addr()
	f.proxies[0].Close()
	sendBatches(3)
	if st := f.r.Stats(); st.FailedOver == 0 {
		t.Fatalf("no failover through the outage: %+v", st)
	}
	p := faultnet.New(f.backends[0].Addr())
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
	t.Cleanup(func() { p.Close() })
	for deadline := time.Now().Add(30 * time.Second); ; {
		st := f.r.Stats()
		pending, degraded := 0, 0
		for _, sh := range st.Shards {
			pending += sh.Pending
			degraded += sh.Degraded
		}
		if pending == 0 && degraded == 0 {
			break
		}
		if time.Now().After(deadline) || next >= 390 {
			t.Fatalf("replay never drained: %+v", st)
		}
		sendBatches(1)
		time.Sleep(10 * time.Millisecond)
	}

	phase("after the rejoin", 4)
	requireReplicasMatch(t, f.r, f.backends, f.ref, nodes, float64(8*next))

	// The whole run, outage included: a batch that failed over was inferred
	// by every live follower and once more when the primary replayed it —
	// R − 1 inferences too many, the price of an outage as it always was.
	// Nothing else was inferred twice; in particular the batches shard 0
	// missed as a follower replayed with the primary's estimates attached.
	total := int64(8 * next * len(nodes))
	if got, want := inferred(f.backends), total+int64(replication-1)*8*f.r.Stats().FailedOver; got != want {
		t.Fatalf("whole run: models ran on %d samples, want %d (%d sent, %d batches failed over)", got, want, total, f.r.Stats().FailedOver)
	}
}
