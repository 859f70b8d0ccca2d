package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"highrpm/internal/cluster"
	"highrpm/internal/core"
	"highrpm/internal/dataset"
	"highrpm/internal/leaktest"
	"highrpm/internal/platform"
	"highrpm/internal/tsdb"
	"highrpm/internal/workload"
)

// trainedModel builds one compact model shared by every test in the
// package (the same recipe the cluster tests use).
var (
	modelOnce sync.Once
	testModel *core.HighRPM
	modelErr  error
)

func sharedModel(t testing.TB) *core.HighRPM {
	t.Helper()
	modelOnce.Do(func() {
		cfg := dataset.DefaultGenerateConfig()
		cfg.SamplesPerSuite = 150
		train := &dataset.Set{}
		for _, s := range []string{workload.SuiteHPCC, workload.SuiteSPEC} {
			set, err := dataset.GenerateSuite(cfg, s)
			if err != nil {
				modelErr = err
				return
			}
			train.Append(set)
		}
		opts := core.DefaultOptions()
		opts.ActiveLearning = false
		opts.Dynamic.Epochs = 4
		opts.Dynamic.MaxWindows = 120
		testModel, modelErr = core.Train(train, opts)
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return testModel
}

// startBackend spins up one real cluster.Service on a loopback port.
func startBackend(t testing.TB) *cluster.Service {
	t.Helper()
	svc := cluster.NewService(sharedModel(t))
	svc.Logf = t.Logf
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// startFleet builds n backends and a router fronting them, returning both.
func startFleet(t testing.TB, n int, opts TopologyOptions) (*Router, []*cluster.Service) {
	t.Helper()
	backends := make([]*cluster.Service, n)
	top := Topology{}
	for i := range backends {
		backends[i] = startBackend(t)
		top.Shards = append(top.Shards, Shard{Name: fmt.Sprintf("shard-%d", i), Addr: backends[i].Addr()})
	}
	r, err := NewRouter(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.Logf = t.Logf
	if err := r.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, backends
}

// balancedNodes picks perShard node names per shard (by ring placement),
// sorted, so equivalence tests exercise every backend.
func balancedNodes(t testing.TB, r *Router, perShard int) []string {
	t.Helper()
	counts := make([]int, len(r.shards))
	nodes := make([]string, 0, perShard*len(r.shards))
	for i := 0; len(nodes) < perShard*len(r.shards); i++ {
		if i > 10000 {
			t.Fatal("could not balance nodes over shards")
		}
		name := fmt.Sprintf("node-%03d", i)
		idx := r.ring.owner(name)
		if counts[idx] < perShard {
			counts[idx]++
			nodes = append(nodes, name)
		}
	}
	sort.Strings(nodes)
	return nodes
}

// genSamples produces n deterministic seconds of telemetry for one
// simulated node; every tenth second carries an IPMI reading.
func genSamples(t testing.TB, seed int64, n int) []cluster.Sample {
	t.Helper()
	node, err := platform.NewNode(platform.ARMConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Find("HPCC/FFT")
	if err != nil {
		t.Fatal(err)
	}
	node.Attach(b)
	out := make([]cluster.Sample, 0, n)
	for i := 0; i < n; i++ {
		s := node.Step(1)
		smp := cluster.Sample{Time: s.Time, PMC: s.Counters.Slice()}
		if i%10 == 0 {
			v := s.PNode
			smp.Measured = &v
		}
		out = append(out, smp)
	}
	return out
}

// frontCodecs are the wire codecs a front-end agent can pin. The fleet's
// answers must not depend on which one it speaks: every equivalence and
// fault test runs once per codec against the same binary-dialed reference.
// A JSON agent only sends samples; what a suite reads back, and any batch
// it sends, goes over binary, the only codec that carries them.
var frontCodecs = []string{cluster.CodecBinary, cluster.CodecJSON}

// dialFront connects a front-end agent pinned to codec and checks the
// router actually negotiated it.
func dialFront(t testing.TB, r *Router, node, codec string) *cluster.Agent {
	t.Helper()
	ag, err := cluster.DialCodec(r.Addr(), node, codec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ag.Codec(); got != codec {
		ag.Close()
		t.Fatalf("front-end codec = %q, want %q", got, codec)
	}
	return ag
}

func sameEstimate(a, b cluster.Estimate) bool {
	return a.NodeID == b.NodeID &&
		math.Float64bits(a.Time) == math.Float64bits(b.Time) &&
		math.Float64bits(a.PNode) == math.Float64bits(b.PNode) &&
		math.Float64bits(a.PCPU) == math.Float64bits(b.PCPU) &&
		math.Float64bits(a.PMEM) == math.Float64bits(b.PMEM) &&
		a.FromMeasurement == b.FromMeasurement &&
		a.Local == b.Local
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sendEmptyBatch plays the one request no Agent emits: it dials addr raw,
// negotiates codec, sends a RecordBatch with zero samples for node "ghost"
// and returns the reply frame's body.
func sendEmptyBatch(t testing.TB, addr, codec string) []byte {
	t.Helper()
	c := dialRaw(t, addr, codec)
	var err error
	if c.binary {
		// Length prefix, kind 7 (record batch), node string, u32 count 0.
		_, err = c.conn.Write([]byte{0, 0, 0, 12, 7, 0, 5, 'g', 'h', 'o', 's', 't', 0, 0, 0, 0})
	} else {
		err = cluster.WriteMsg(c.conn, cluster.KindRecordBatch, cluster.RecordBatch{NodeID: "ghost", Samples: []cluster.BatchSample{}})
	}
	if err != nil {
		t.Fatal(err)
	}
	return c.reply()
}

// rawClient is a connection past its Hello that sends queries and hands back
// the reply frames as they are on the wire, undecoded — what the frame
// comparisons of the equivalence suites read.
type rawClient struct {
	t      testing.TB
	conn   net.Conn
	r      *bufio.Reader
	binary bool
}

func dialRaw(t testing.TB, addr, codec string) *rawClient {
	t.Helper()
	hello := cluster.Hello{NodeID: "frame-client"}
	if codec == cluster.CodecBinary {
		hello.Codecs = []string{cluster.CodecBinary}
	}
	return dialRawHello(t, addr, hello)
}

// dialRawHello is dialRaw with the Hello as given: an offer of the binary
// codec makes the client binary.
func dialRawHello(t testing.TB, addr string, hello cluster.Hello) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	c := &rawClient{t: t, conn: conn, r: bufio.NewReader(conn), binary: len(hello.Codecs) > 0}
	if err := cluster.WriteMsg(conn, cluster.KindHello, hello); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.ReadMsgLimit(c.r, cluster.DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	return c
}

// queryFrame sends q as a binary query frame, the only way a query travels,
// and returns the reply frame's body, kind byte included.
func (c *rawClient) queryFrame(q cluster.QueryRequest) []byte {
	c.t.Helper()
	// Kind 4: node string, channel string, f64 from, f64 to, u32 resolution.
	body := []byte{4}
	body = binary.BigEndian.AppendUint16(body, uint16(len(q.NodeID)))
	body = append(body, q.NodeID...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(q.Channel)))
	body = append(body, q.Channel...)
	body = binary.BigEndian.AppendUint64(body, math.Float64bits(q.From))
	body = binary.BigEndian.AppendUint64(body, math.Float64bits(q.To))
	body = binary.BigEndian.AppendUint32(body, uint32(q.ResolutionS))
	if _, err := c.conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)); err != nil {
		c.t.Fatal(err)
	}
	return c.reply()
}

// reply reads one reply frame and returns its body.
func (c *rawClient) reply() []byte {
	c.t.Helper()
	var lenBuf [4]byte
	if _, err := io.ReadFull(c.r, lenBuf[:]); err != nil {
		c.t.Fatal(err)
	}
	frame := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(c.r, frame); err != nil {
		c.t.Fatal(err)
	}
	return frame
}

// requireSameFrames sends every query to the fleet and to the reference
// service and requires the reply frames byte-identical: what a client reads
// off the socket does not depend on a router being in the way, relayed
// whole or merged from a scatter.
func requireSameFrames(t testing.TB, fleetAddr, refAddr string, queries []cluster.QueryRequest) {
	t.Helper()
	fc, rc := dialRaw(t, fleetAddr, cluster.CodecBinary), dialRaw(t, refAddr, cluster.CodecBinary)
	for _, q := range queries {
		if ff, rf := fc.queryFrame(q), rc.queryFrame(q); !bytes.Equal(ff, rf) {
			t.Fatalf("reply frame for %+v diverges:\nfleet %x\nref   %x", q, ff, rf)
		}
	}
}

// everyQuery lists one query per node, channel and resolution, and the
// aggregate per channel and resolution, over [0, to].
func everyQuery(nodes []string, to float64) []cluster.QueryRequest {
	var qs []cluster.QueryRequest
	for _, node := range append([]string{""}, nodes...) {
		for _, ch := range tsdb.Channels() {
			for _, res := range []int{1, 10, 60} {
				qs = append(qs, cluster.QueryRequest{NodeID: node, Channel: string(ch), From: 0, To: to, ResolutionS: res})
			}
		}
	}
	return qs
}

// stripTransport zeroes the Stats fields that depend on connection count,
// codec negotiation, and framing — everything the extra router hop
// legitimately changes — leaving the sample, estimate, and store
// accounting that must match a single service exactly.
func stripTransport(st *cluster.Stats) {
	st.Conns, st.PeakConns, st.NodeConns = 0, 0, nil
	st.BinConns, st.BinFrames, st.JSONFrames = 0, 0, 0
	st.Rejected, st.TimedOut = 0, 0
	st.Batches, st.BatchSamples = 0, 0
}

// TestFleetEquivalence is the PR's acceptance golden test: a 2-shard
// fleet must answer every estimate, QuerySeries, Aggregate, and Stats
// request byte-identically to a single service fed the same samples.
func TestFleetEquivalence(t *testing.T) {
	for _, codec := range frontCodecs {
		t.Run(codec, func(t *testing.T) { testFleetEquivalence(t, codec) })
	}
}

func testFleetEquivalence(t *testing.T, codec string) {
	leaktest.Check(t)
	r, _ := startFleet(t, 2, DefaultTopologyOptions())
	ref := startBackend(t)

	nodes := balancedNodes(t, r, 2)
	const seconds = 60
	for ni, node := range nodes {
		samples := genSamples(t, int64(100+ni), seconds)
		fa := dialFront(t, r, node, codec)
		ra, err := cluster.Dial(ref.Addr(), node)
		if err != nil {
			fa.Close()
			t.Fatal(err)
		}
		for i, smp := range samples {
			fest, err := fa.Send(smp.Time, smp.PMC, smp.Measured)
			if err != nil {
				t.Fatalf("fleet send %s[%d]: %v", node, i, err)
			}
			rest, err := ra.Send(smp.Time, smp.PMC, smp.Measured)
			if err != nil {
				t.Fatalf("ref send %s[%d]: %v", node, i, err)
			}
			if !sameEstimate(fest, rest) {
				t.Fatalf("estimate %s[%d]: fleet %+v, ref %+v", node, i, fest, rest)
			}
		}
		fa.Close()
		ra.Close()
	}

	fa := dialFront(t, r, "query-client", codec)
	defer fa.Close()
	fq := fa // reads history; over JSON a reader of its own, which registers no node
	if codec != cluster.CodecBinary {
		fq = dialFront(t, r, "", cluster.CodecBinary)
		defer fq.Close()
	}
	ra, err := cluster.Dial(ref.Addr(), "query-client")
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	// Stats before any queries touch the stores: the summed fleet answer
	// must equal the single service's, transport accounting aside.
	fst, err := fa.Stats()
	if err != nil {
		t.Fatal(err)
	}
	rst, err := ra.Stats()
	if err != nil {
		t.Fatal(err)
	}
	stripTransport(&fst)
	stripTransport(&rst)
	if !reflect.DeepEqual(fst, rst) {
		t.Fatalf("stats diverge:\nfleet %+v\nref   %+v", fst, rst)
	}

	// An empty record batch for a node nobody ever sampled — any peer can
	// send one. A service answers with an empty estimate batch and records
	// nothing; so must the fleet. Were the ghost to join the scatter-gather
	// set, every aggregate below would fail with "no history for node". Over
	// JSON both refuse the batch with the same error reply.
	if fb, rb := sendEmptyBatch(t, r.Addr(), codec), sendEmptyBatch(t, ref.Addr(), codec); !bytes.Equal(fb, rb) {
		t.Fatalf("empty batch answered differently:\nfleet %q\nref   %q", fb, rb)
	}

	// Every node, every channel, raw and rolled up: byte-identical wire
	// bodies.
	for _, node := range nodes {
		for _, ch := range tsdb.Channels() {
			for _, res := range []int{1, 10} {
				q := cluster.QueryRequest{NodeID: node, Channel: string(ch), From: 0, To: seconds - 1, ResolutionS: res}
				fb, err := fq.Query(q)
				if err != nil {
					t.Fatalf("fleet query %+v: %v", q, err)
				}
				rb, err := ra.Query(q)
				if err != nil {
					t.Fatalf("ref query %+v: %v", q, err)
				}
				if fj, rj := mustJSON(t, fb), mustJSON(t, rb); fj != rj {
					t.Fatalf("series %s/%s@%ds diverges:\nfleet %s\nref   %s", node, ch, res, fj, rj)
				}
			}
		}
	}

	// The cluster-wide aggregate: scatter-gathered across shards, merged
	// in sorted node order — bit-identical to the single store's own
	// parallel Aggregate.
	for _, ch := range tsdb.Channels() {
		for _, res := range []int{1, 10, 60} {
			q := cluster.QueryRequest{Channel: string(ch), From: 0, To: seconds - 1, ResolutionS: res}
			fb, err := fq.Query(q)
			if err != nil {
				t.Fatalf("fleet aggregate %+v: %v", q, err)
			}
			rb, err := ra.Query(q)
			if err != nil {
				t.Fatalf("ref aggregate %+v: %v", q, err)
			}
			if fj, rj := mustJSON(t, fb), mustJSON(t, rb); fj != rj {
				t.Fatalf("aggregate %s@%ds diverges:\nfleet %s\nref   %s", ch, res, fj, rj)
			}
		}
	}

	// The same answers as frames on the wire, every node and the aggregate,
	// every channel, every resolution. The connections are the frame clients'
	// own, so the accounting below counts them.
	requireSameFrames(t, r.Addr(), ref.Addr(), everyQuery(nodes, seconds-1))

	// Errors must read byte-identical too: unknown channels and bad
	// resolutions are rejected with the service's own message whether the
	// query names a node or scatters.
	for _, q := range []cluster.QueryRequest{
		{NodeID: nodes[0], Channel: "bogus", From: 0, To: 10},
		{Channel: "bogus", From: 0, To: 10},
		{Channel: "p_node", From: 0, To: 10, ResolutionS: 7},
	} {
		_, ferr := fq.Query(q)
		_, rerr := ra.Query(q)
		if ferr == nil || rerr == nil {
			t.Fatalf("query %+v: fleet err %v, ref err %v", q, ferr, rerr)
		}
		if ferr.Error() != rerr.Error() {
			t.Fatalf("error for %+v diverges: fleet %q, ref %q", q, ferr, rerr)
		}
	}
	// A sample the backend rejects: its *ServiceError must reach the front
	// end as the service's own message, on a binary error frame as on a
	// JSON one, and leave the connection usable.
	_, ferr := fa.Send(seconds, []float64{1, 2}, nil)
	_, rerr := ra.Send(seconds, []float64{1, 2}, nil)
	var fse, rse *cluster.ServiceError
	if !errors.As(ferr, &fse) || !errors.As(rerr, &rse) {
		t.Fatalf("bad sample: fleet err %v, ref err %v, want service errors", ferr, rerr)
	}
	if fse.Message != rse.Message {
		t.Fatalf("bad-sample error diverges: fleet %q, ref %q", fse.Message, rse.Message)
	}
	if _, err := fa.Stats(); err != nil {
		t.Fatalf("connection unusable after a rejected sample: %v", err)
	}

	st := r.Stats()
	if st.Nodes != len(nodes) {
		t.Fatalf("router nodes = %d, want %d", st.Nodes, len(nodes))
	}
	if st.Routed != int64(len(nodes)*seconds) {
		t.Fatalf("routed = %d, want %d", st.Routed, len(nodes)*seconds)
	}
	if st.Replicated != 0 || st.FailedOver != 0 {
		t.Fatalf("unexpected replication counters: %+v", st)
	}
	if st.ScatterGathers == 0 {
		t.Fatal("no scatter-gathers counted")
	}
	if st.RouteErrors != 4 {
		t.Fatalf("route errors = %d, want the 4 rejected requests", st.RouteErrors)
	}
	// The front hop spoke the pinned codec, and only that: a JSON agent
	// shows up as JSON frames, a binary one as one JSON Hello per
	// connection and binary frames after it. Beside the JSON agents, only
	// the reader and the frame client negotiated binary.
	conns := int64(len(nodes) + 3) // one per node, the query client, the empty-batch peer, the frame client
	switch codec {
	case cluster.CodecBinary:
		if st.BinConns != conns || st.JSONFrames != conns || st.BinFrames == 0 {
			t.Fatalf("binary front hop accounting: %+v", st)
		}
	case cluster.CodecJSON:
		if st.BinConns != 2 || st.JSONFrames <= conns {
			t.Fatalf("JSON front hop accounting: %+v", st)
		}
	}
}

// TestRouterNegotiatesBinary pins the front-hop default: an agent that
// dials a router with no codec preference gets the binary codec, exactly
// as it would from a service.
func TestRouterNegotiatesBinary(t *testing.T) {
	leaktest.Check(t)
	r, _ := startFleet(t, 1, DefaultTopologyOptions())
	ag, err := cluster.Dial(r.Addr(), "default-dial")
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()
	if got := ag.Codec(); got != cluster.CodecBinary {
		t.Fatalf("default dial to a router negotiated %q, want %q", got, cluster.CodecBinary)
	}
	ra, err := cluster.DialResilient(r.Addr(), "default-resilient", cluster.DefaultAgentOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	if st := r.Stats(); st.BinConns != 2 {
		t.Fatalf("binary front-end connections = %d, want 2", st.BinConns)
	}
}

// TestRouterSharesModelSnapshot: every per-node agent fetches the model for
// itself, but the router keeps one decoded copy for all of them instead of
// one each. Query connections hold no model.
func TestRouterSharesModelSnapshot(t *testing.T) {
	leaktest.Check(t)
	r, _ := startFleet(t, 2, DefaultTopologyOptions())
	nodes := balancedNodes(t, r, 2)
	for ni, node := range nodes {
		ag := dialFront(t, r, node, cluster.CodecBinary)
		for _, smp := range genSamples(t, int64(900+ni), 2) {
			if _, err := ag.Send(smp.Time, smp.PMC, smp.Measured); err != nil {
				t.Fatal(err)
			}
		}
		ag.Close()
	}
	var model *core.HighRPM
	agents := 0
	for _, node := range nodes {
		nr := r.routeFor(node)
		nr.mu.Lock()
		for _, rp := range nr.reps {
			ag := rp.agent
			if ag == nil {
				continue
			}
			agents++
			if c := ag.Counters(); c.ModelSyncs != 1 {
				t.Fatalf("%s: ModelSyncs = %d, want its own fetch counted once", ag.NodeID(), c.ModelSyncs)
			}
			if model == nil {
				model = ag.Model()
			}
			if ag.Model() != model {
				t.Fatalf("%s holds a private decoded model", ag.NodeID())
			}
		}
		nr.mu.Unlock()
	}
	if agents != len(nodes) {
		t.Fatalf("%d per-node agents, want %d", agents, len(nodes))
	}
}

// TestFleetReplicatedEquivalence repeats the golden path with R=2 on two
// shards: every node's stream lands on both backends, answers stay
// byte-identical, and each backend's store independently holds the full
// fleet history.
func TestFleetReplicatedEquivalence(t *testing.T) {
	for _, codec := range frontCodecs {
		t.Run(codec, func(t *testing.T) { testFleetReplicatedEquivalence(t, codec) })
	}
}

func testFleetReplicatedEquivalence(t *testing.T, codec string) {
	leaktest.Check(t)
	opts := DefaultTopologyOptions()
	opts.Replication = 2
	r, backends := startFleet(t, 2, opts)
	ref := startBackend(t)

	nodes := balancedNodes(t, r, 1)
	const seconds = 40
	for ni, node := range nodes {
		samples := genSamples(t, int64(300+ni), seconds)
		fa := dialFront(t, r, node, codec)
		ra, err := cluster.Dial(ref.Addr(), node)
		if err != nil {
			fa.Close()
			t.Fatal(err)
		}
		for i, smp := range samples {
			fest, err := fa.Send(smp.Time, smp.PMC, smp.Measured)
			if err != nil {
				t.Fatalf("fleet send %s[%d]: %v", node, i, err)
			}
			rest, err := ra.Send(smp.Time, smp.PMC, smp.Measured)
			if err != nil {
				t.Fatalf("ref send %s[%d]: %v", node, i, err)
			}
			if !sameEstimate(fest, rest) {
				t.Fatalf("estimate %s[%d]: fleet %+v, ref %+v", node, i, fest, rest)
			}
		}
		fa.Close()
		ra.Close()
	}

	fa := dialFront(t, r, "query-client", cluster.CodecBinary)
	defer fa.Close()
	ra, err := cluster.Dial(ref.Addr(), "query-client")
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	q := cluster.QueryRequest{Channel: "p_node", From: 0, To: seconds - 1, ResolutionS: 1}
	fb, err := fa.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ra.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if fj, rj := mustJSON(t, fb), mustJSON(t, rb); fj != rj {
		t.Fatalf("replicated aggregate diverges:\nfleet %s\nref   %s", fj, rj)
	}

	// Every backend holds every node's complete series — that is what
	// failover reads.
	for _, node := range nodes {
		nq := cluster.QueryRequest{NodeID: node, Channel: "p_node", From: 0, To: seconds - 1, ResolutionS: 1}
		want, err := ra.Query(nq)
		if err != nil {
			t.Fatal(err)
		}
		for bi, be := range backends {
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
				t.Fatalf("backend %d series for %s diverges:\ngot  %s\nwant %s", bi, node, gj, wj)
			}
		}
	}

	// A shard answers in kind 9 every series whose points are all raw
	// points — every raw series, and a rollup whose buckets each hold one
	// reading (the sparse ipmi channel at 10 s) — and in kind 5 the rest.
	// To the frame client and an Agent alike, every single-node answer of
	// either kind crosses the router as the shard framed it, byte-identical
	// to the reference.
	queries := everyQuery(nodes, seconds-1)
	var nodeQueries, kind5 int64
	for _, q := range queries {
		if q.NodeID == "" {
			continue
		}
		nodeQueries++
		body, err := ra.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range body.StorePoints() {
			if math.Float64bits(p.Min) != math.Float64bits(p.Value) || math.Float64bits(p.Max) != math.Float64bits(p.Value) || p.Count != 1 {
				kind5++
				break
			}
		}
	}
	if kind5 == 0 || kind5 == nodeQueries {
		t.Fatalf("%d of %d node series need kind 5; the relays below no longer cover both kinds", kind5, nodeQueries)
	}
	relayCount := func(what string, queried func()) {
		t.Helper()
		before := r.Stats()
		queried()
		if answered := r.Stats().NodeQueries - before.NodeQueries; answered != nodeQueries {
			t.Fatalf("%s front end, %s: %d node queries, want %d", codec, what, answered, nodeQueries)
		}
	}
	relayCount("frame client", func() { requireSameFrames(t, r.Addr(), ref.Addr(), queries) })
	relayCount("agent", func() {
		for _, q := range queries {
			if q.NodeID == "" {
				continue
			}
			fb, err := fa.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := ra.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if fj, rj := mustJSON(t, fb), mustJSON(t, rb); fj != rj {
				t.Fatalf("series %+v diverges:\nfleet %s\nref   %s", q, fj, rj)
			}
		}
	})

	if st := r.Stats(); st.Replicated != int64(len(nodes)*seconds) {
		t.Fatalf("replicated = %d, want %d", st.Replicated, len(nodes)*seconds)
	}
}

// TestFleetBatchForwarding covers the KindRecordBatch path: a batching
// front-end agent must receive the same per-sample estimates through the
// router as against the service directly, and the history must match. A
// record batch travels only in binary frames, so there is no JSON leg.
func TestFleetBatchForwarding(t *testing.T) {
	t.Run(cluster.CodecBinary, func(t *testing.T) { testFleetBatchForwarding(t, cluster.CodecBinary) })
}

func testFleetBatchForwarding(t *testing.T, codec string) {
	leaktest.Check(t)
	r, _ := startFleet(t, 2, DefaultTopologyOptions())
	ref := startBackend(t)

	const node = "batch-node"
	const seconds = 32
	samples := genSamples(t, 77, seconds)

	send := func(addr, codec string) []cluster.Estimate {
		t.Helper()
		ag := batchAgent(t, addr, node, codec)
		var ests []cluster.Estimate
		for _, smp := range samples {
			got, err := ag.Record(smp.Time, smp.PMC, smp.Measured)
			if err != nil {
				t.Fatal(err)
			}
			ests = append(ests, got...)
		}
		got, err := ag.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return append(ests, got...)
	}

	fests := send(r.Addr(), codec)
	rests := send(ref.Addr(), cluster.CodecBinary)
	if len(fests) != seconds || len(rests) != seconds {
		t.Fatalf("estimate counts: fleet %d, ref %d, want %d", len(fests), len(rests), seconds)
	}
	for i := range fests {
		if !sameEstimate(fests[i], rests[i]) {
			t.Fatalf("batch estimate[%d]: fleet %+v, ref %+v", i, fests[i], rests[i])
		}
	}

	fa := dialFront(t, r, "query-client", codec)
	defer fa.Close()
	ra, err := cluster.Dial(ref.Addr(), "query-client")
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	q := cluster.QueryRequest{NodeID: node, Channel: "p_cpu", From: 0, To: seconds - 1, ResolutionS: 1}
	fb, err := fa.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ra.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if fj, rj := mustJSON(t, fb), mustJSON(t, rb); fj != rj {
		t.Fatalf("batched series diverges:\nfleet %s\nref   %s", fj, rj)
	}
}

func TestRouterValidation(t *testing.T) {
	leaktest.Check(t)
	for _, tc := range []struct {
		name string
		top  Topology
	}{
		{"no shards", Topology{}},
		{"empty name", Topology{Shards: []Shard{{Name: "", Addr: "x"}}}},
		{"duplicate name", Topology{Shards: []Shard{{Name: "a", Addr: "x"}, {Name: "a", Addr: "y"}}}},
	} {
		if _, err := NewRouter(tc.top, TopologyOptions{}); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}

	top := Topology{Shards: []Shard{{Name: "a", Addr: "x"}, {Name: "b", Addr: "y"}}}
	r, err := NewRouter(top, TopologyOptions{Replication: 99})
	if err != nil {
		t.Fatal(err)
	}
	o := r.Options()
	if o.Replication != 2 || o.DialRetry != DefaultDialRetry {
		t.Fatalf("resolved options = %+v", o)
	}
	if o.Agent.RequestTimeout == 0 || o.FrontEnd.MaxFrame == 0 {
		t.Fatalf("agent/front-end defaults not applied: %+v", o)
	}
	if len(r.shards) != 2 || r.shards[0].shard != top.Shards[0] || r.shards[1].shard != top.Shards[1] {
		t.Fatalf("router shards differ from topology %+v", top)
	}
	if r.Addr() != "" {
		t.Fatal("unbound router reports an address")
	}
}

// TestRouterQueryAllocs is the relay's allocation guard: a single-node query
// through a one-shard router costs what it costs against the service itself
// — the client's own result, the point slice and two header strings — however
// many points the window holds. The shard writes its blocks into its
// connection's scratch, the router copies the payload across, and neither
// allocates.
func TestRouterQueryAllocs(t *testing.T) {
	leaktest.Check(t)
	r, backends := startFleet(t, 1, DefaultTopologyOptions())
	const node = "node-alloc"
	// 1100 seconds seal two 512-point blocks, which hold both windows: a warm
	// read is served from the decoded-block cache alone.
	seedOutOfBand(t, node, 1100, backends[0])
	// A Hello is what gives the router a route for the node, as an agent's
	// first connection does; the query client is a connection of its own.
	dialFront(t, r, node, cluster.CodecBinary).Close()
	qa := dialFront(t, r, "query-alloc", cluster.CodecBinary)
	defer qa.Close()
	const clientAllocs = 3 // the []SeriesPoint, the node string, the channel string
	for _, window := range []int{60, 600} {
		q := cluster.QueryRequest{NodeID: node, Channel: "p_node", From: 0, To: float64(window - 1), ResolutionS: 1}
		query := func() {
			if body, err := qa.Query(q); err != nil || len(body.Points) != window {
				t.Fatalf("query: %d points, err %v, want %d", len(body.Points), err, window)
			}
		}
		query() // warm the block cache and every connection's scratch
		if allocs := testing.AllocsPerRun(100, query); allocs != clientAllocs {
			t.Fatalf("a %d-point query through the router allocates %.1f times, want the client's %d and none in router or shard", window, allocs, clientAllocs)
		}
	}
}

// echoShard is a shard backend that answers from its arguments alone, as a
// service's reply would look, appending into the connection's reply scratch:
// with it behind a router, every allocation a request costs is the router's
// or a connection's.
type echoShard struct{ model []byte }

func (echoShard) Hello(string) {}

func (echoShard) Batch(rb *cluster.RecordBatch, dst []cluster.Estimate) ([]cluster.Estimate, error) {
	for i := range rb.Samples {
		s := &rb.Samples[i]
		dst = append(dst, echoEstimate(rb.NodeID, s.Time, s.Measured, s.Relayed))
	}
	return dst, nil
}

func echoEstimate(node string, t float64, measured *float64, rel *cluster.RelayedEstimate) cluster.Estimate {
	est := cluster.Estimate{NodeID: node, Time: t, PNode: 100, PCPU: 60, PMEM: 25}
	if measured != nil {
		est.PNode, est.FromMeasurement = *measured, true
	}
	if rel != nil {
		est.PNode, est.PCPU, est.PMEM = rel.PNode, rel.PCPU, rel.PMEM
	}
	return est
}

func (echoShard) Query(cluster.QueryRequest, *cluster.SeriesWriter) error {
	return errors.New("echo shard keeps no history")
}

func (echoShard) Stats() (cluster.Stats, error) { return cluster.Stats{}, nil }

func (s echoShard) Model() ([]byte, error) { return s.model, nil }

// TestRouterIngestAllocs is the ingest path's allocation guard: at R = 2 a
// 16-sample batch from a batching front-end agent, or a single sample,
// through the router to two shards allocates nothing in steady state — not
// in the driver's agent, the router's front end, its fan-out and per-replica
// agents, nor the shards' serve loops. The batch's relayed follower leg is
// under the guard too: the follower shard is sent the primary's estimates.
func TestRouterIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("batch replies use pooled buffers, and sync.Pool drops items under -race")
	}
	leaktest.Check(t)
	model, err := core.Marshal(sharedModel(t))
	if err != nil {
		t.Fatal(err)
	}
	var top Topology
	for i := 0; i < 2; i++ {
		srv := cluster.NewServer("echo", echoShard{model}, cluster.DefaultServiceOptions(), t.Logf)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		top.Shards = append(top.Shards, Shard{Name: fmt.Sprintf("echo-%d", i), Addr: srv.Addr()})
	}
	opts := DefaultTopologyOptions()
	opts.Replication = 2
	r, err := NewRouter(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.Logf = t.Logf
	if err := r.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	ag := dialFront(t, r, "node-alloc", cluster.CodecBinary)
	defer ag.Close()
	ag.SetBatching(cluster.BatchOptions{MaxSamples: 16})

	pmc := make([]float64, 8)
	meas := 97.5
	tick := 0.0
	batch := func() {
		for i := 0; i < 16; i++ {
			tick++
			m := &meas
			if i%4 != 0 {
				m = nil
			}
			ests, err := ag.Record(tick, pmc, m)
			if err != nil || (i < 15) != (ests == nil) {
				t.Fatalf("Record %d: %d estimates, err %v", i, len(ests), err)
			}
			if i == 15 && (len(ests) != 16 || ests[15].Time != tick || ests[0].PNode != meas) {
				t.Fatalf("batch reply: %+v", ests)
			}
		}
	}
	sample := func() {
		tick++
		if est, err := ag.Send(tick, pmc, &meas); err != nil || est.Time != tick || est.PNode != meas {
			t.Fatalf("sample reply: %+v err %v", est, err)
		}
	}
	batch() // dial the per-replica agents and warm every scratch
	sample()
	relayed := r.Stats().Relayed
	if allocs := testing.AllocsPerRun(50, batch); allocs != 0 {
		t.Fatalf("a 16-sample batch through an R = 2 router allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, sample); allocs != 0 {
		t.Fatalf("a sample through an R = 2 router allocates %.1f times, want 0", allocs)
	}
	if got, want := r.Stats().Relayed-relayed, int64(51*16+51); got != want {
		t.Fatalf("the follower was relayed %d samples, want %d", got, want)
	}
}
