package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"highrpm/internal/core"
	"highrpm/internal/dataset"
	"highrpm/internal/leaktest"
	"highrpm/internal/platform"
	"highrpm/internal/workload"
)

// trainedModel builds one compact model shared by the tests in this file.
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

// benchPMC returns a plausible counter vector for the shared model's width.
func benchPMC() []float64 {
	pmc := make([]float64, 10)
	for i := range pmc {
		pmc[i] = 1e9 + float64(i)*1e7
	}
	return pmc
}

func startService(t testing.TB) *Service {
	return startServiceWith(t, DefaultServiceOptions())
}

func startServiceWith(t testing.TB, opts ServiceOptions) *Service {
	t.Helper()
	svc := NewServiceWith(sharedModel(t), opts)
	svc.Logf = t.Logf
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func TestServiceAgentRoundTrip(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	agent, err := Dial(svc.Addr(), "node-a")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	node, err := platform.NewNode(platform.ARMConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Find("HPCC/FFT")
	if err != nil {
		t.Fatal(err)
	}
	node.Attach(b)
	var measuredSeen bool
	for i := 0; i < 30; i++ {
		s := node.Step(1)
		var measured *float64
		if i%10 == 0 {
			v := s.PNode
			measured = &v
		}
		est, err := agent.Send(s.Time, s.Counters.Slice(), measured)
		if err != nil {
			t.Fatal(err)
		}
		if est.NodeID != "node-a" {
			t.Fatalf("estimate for %q", est.NodeID)
		}
		if measured != nil {
			if !est.FromMeasurement || est.PNode != *measured {
				t.Fatal("measured reading not honoured")
			}
			measuredSeen = true
		}
		if math.IsNaN(est.PCPU) || math.IsNaN(est.PMEM) {
			t.Fatal("NaN component estimate")
		}
	}
	if !measuredSeen {
		t.Fatal("no measured reading exercised")
	}
	st, err := agent.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 1 || st.Samples != 30 || st.Measured != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServiceIsolatesNodes(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	a, err := Dial(svc.Addr(), "node-1")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(svc.Addr(), "node-2")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Feed node-1 high power and node-2 low power; monitors must not mix.
	pmcHigh := make([]float64, 10)
	pmcLow := make([]float64, 10)
	for i := range pmcHigh {
		pmcHigh[i] = 1e10
		pmcLow[i] = 1e7
	}
	high, low := 110.0, 50.0
	if _, err := a.Send(0, pmcHigh, &high); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Send(0, pmcLow, &low); err != nil {
		t.Fatal(err)
	}
	ea, err := a.Send(1, pmcHigh, nil)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Send(1, pmcLow, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ea.PNode <= eb.PNode {
		t.Fatalf("per-node history mixed: %g vs %g", ea.PNode, eb.PNode)
	}
	st := svc.Stats()
	if st.Nodes != 2 {
		t.Fatalf("stats nodes = %d", st.Nodes)
	}
}

// TestServiceSameNodeTwoConnections is the reconnect-while-the-old-request-
// is-in-flight case: two connections carry one node id and send at once,
// one from t = 0 and one from t = 1000. The node's lock must serialise them
// (the race detector is the referee for the monitor); a sample behind the
// other connection's newest time is refused, and every sample is counted
// once and either refused or estimated, stored and gauged once.
func TestServiceSameNodeTwoConnections(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	const perConn = 400
	var wg sync.WaitGroup
	var accepted, refused atomic.Int64
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		agent, err := Dial(svc.Addr(), "node-dup")
		if err != nil {
			t.Fatal(err)
		}
		defer agent.Close()
		wg.Add(1)
		go func(base float64) {
			defer wg.Done()
			pmc := benchPMC()
			for i := 0; i < perConn; i++ {
				var measured *float64
				if i%10 == 0 {
					v := 80 + float64(i%7)
					measured = &v
				}
				_, err := agent.Send(base+float64(i), pmc, measured)
				var se *ServiceError
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.As(err, &se):
					refused.Add(1) // behind the other connection's newest time
				default:
					errs <- err
					return
				}
			}
		}(float64(c * 1000))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if a, r := accepted.Load(), refused.Load(); a+r != 2*perConn || a < perConn {
		t.Fatalf("%d accepted + %d refused, want %d sent and at least %d accepted", a, r, 2*perConn, perConn)
	}
	if st := svc.Stats(); st.Samples != 2*perConn || st.Estimates != accepted.Load() || st.Nodes != 1 {
		t.Fatalf("stats = %d samples, %d estimates on %d nodes, want %d, %d on 1", st.Samples, st.Estimates, st.Nodes, 2*perConn, accepted.Load())
	}
	raw, err := svc.Store().QuerySeries("node-dup", "p_node", 0, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw.Points)) != accepted.Load() {
		t.Fatalf("store holds %d raw p_node points, want the %d accepted", len(raw.Points), accepted.Load())
	}
	for i := 1; i < len(raw.Points); i++ {
		if raw.Points[i].Time < raw.Points[i-1].Time {
			t.Fatalf("stored time goes back at point %d: %g after %g", i, raw.Points[i].Time, raw.Points[i-1].Time)
		}
	}
	if latest := svc.LatestEstimates(); len(latest) != 1 {
		t.Fatalf("%d latest estimates, want 1: %v", len(latest), latest)
	}
}

// TestServiceKeepsNodeTimeOrder: a sample whose time is not finite or runs
// behind the node's newest accepted one is a *ServiceError, alone or in a
// batch, and changes nothing of the node, and so is a NaN or ±MaxFloat64
// reading and a relayed estimate that is not finite; a raw
// query then reads the node's history in order (one accepted sample at
// t = 0 after t = 4 would make a raw [2, 7] query answer [5 6 7]).
func TestServiceKeepsNodeTimeOrder(t *testing.T) {
	leaktest.Check(t)
	svc, ref := startService(t), startService(t)
	agent, err := Dial(svc.Addr(), "node-t")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	refAgent, err := Dial(ref.Addr(), "node-t")
	if err != nil {
		t.Fatal(err)
	}
	defer refAgent.Close()
	pmc := benchPMC()
	send := func(tm float64) {
		t.Helper()
		v := 80 + tm
		got, err := agent.Send(tm, pmc, &v)
		if err != nil {
			t.Fatalf("t = %g: %v", tm, err)
		}
		want, err := refAgent.Send(tm, pmc, &v)
		if err != nil || got != want {
			t.Fatalf("t = %g: %+v, a service never sent the refused samples %+v (err %v)", tm, got, want, err)
		}
	}
	for i := 0; i < 5; i++ {
		send(float64(i))
	}
	var se *ServiceError
	for _, bad := range []float64{0, 3.5, math.NaN(), math.Inf(1)} {
		if _, err := agent.Send(bad, pmc, nil); !errors.As(err, &se) {
			t.Fatalf("t = %g after t = 4: %v, want a *ServiceError", bad, err)
		}
	}
	agent.SetBatching(BatchOptions{MaxSamples: 2})
	for _, tm := range []float64{5, 2} {
		_, err = agent.Record(tm, pmc, nil)
	}
	if !errors.As(err, &se) {
		t.Fatalf("batch [5 2]: %v, want a *ServiceError", err)
	}
	if _, err := refAgent.Send(5, pmc, nil); err != nil {
		t.Fatal(err)
	}
	agent.SetBatching(BatchOptions{})
	for i := 6; i < 10; i++ {
		send(float64(i))
	}
	body, err := agent.Query(QueryRequest{NodeID: "node-t", Channel: "p_node", From: 2, To: 7})
	if err != nil {
		t.Fatal(err)
	}
	var times []float64
	for _, p := range body.Points {
		times = append(times, p.Time)
	}
	if fmt.Sprint(times) != "[2 3 4 5 6 7]" {
		t.Fatalf("raw [2, 7] times = %v, want [2 3 4 5 6 7]", times)
	}
	// A non-finite reading, or a finite one beyond any node's draw, is the
	// monitor's refusal, answered the same way.
	for _, v := range []float64{math.NaN(), math.MaxFloat64, -math.MaxFloat64} {
		if _, err := agent.Send(10, pmc, &v); !errors.As(err, &se) {
			t.Fatalf("reading %g: %v, want a *ServiceError", v, err)
		}
	}
	// A relayed estimate is recorded as it stands, so the service refuses
	// one with a field that is not finite.
	for _, rel := range []RelayedEstimate{{PNode: math.NaN(), PCPU: 1, PMEM: 1}, {PNode: 90, PCPU: math.Inf(-1), PMEM: 1}} {
		if _, err := sendRelayed(agent, 10, pmc, nil, &rel); !errors.As(err, &se) {
			t.Fatalf("relayed %+v: %v, want a *ServiceError", rel, err)
		}
	}
	send(10)
}

// TestServiceFencesNewestTime: a sample at the node's newest accepted time
// — a replay whose acknowledgement was lost — is answered from the record,
// plain, relayed or inside a batch, whatever PMC vector and reading it
// carries. It moves no counter and stores no point, and the next estimate
// is bit-identical to a service that never saw it.
func TestServiceFencesNewestTime(t *testing.T) {
	leaktest.Check(t)
	svc, ref := startService(t), startService(t)
	agent, err := Dial(svc.Addr(), "node-f")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	refAgent, err := Dial(ref.Addr(), "node-f")
	if err != nil {
		t.Fatal(err)
	}
	defer refAgent.Close()
	pmc := benchPMC()
	var first Estimate
	for i := 0; i <= 5; i++ {
		v := 80 + float64(i)
		first, err = agent.Send(float64(i), pmc, &v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := refAgent.Send(float64(i), pmc, &v); err != nil {
			t.Fatal(err)
		}
	}
	other := make([]float64, len(pmc))
	for i := range other {
		other[i] = 2 * pmc[i]
	}
	reading := 140.0
	if got, err := agent.Send(5, other, &reading); err != nil || got != first {
		t.Fatalf("re-send of t = 5: %+v (err %v), want the first reply %+v", got, err, first)
	}
	if got, err := sendRelayed(agent, 5, other, nil, &RelayedEstimate{PNode: 1, PCPU: 1, PMEM: 1}); err != nil || got != first {
		t.Fatalf("relayed re-send of t = 5: %+v (err %v), want the first reply %+v", got, err, first)
	}
	ests, err := agent.sendBatch([]BatchSample{{Time: 5, PMC: other, Measured: &reading}, {Time: 6, PMC: pmc}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refAgent.Send(6, pmc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 2 || ests[0] != first || ests[1] != want {
		t.Fatalf("batch [5 6]: %+v, want [%+v %+v]", ests, first, want)
	}
	q := QueryRequest{NodeID: "node-f", Channel: "ipmi", From: 0, To: 10}
	for _, a := range []*Agent{agent, refAgent} {
		body, err := a.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(body.Points); n != 7 || body.Points[5].Value != 85 {
			t.Fatalf("raw ipmi: %d points, t = 5 reads %v; want 7 points, 85", n, body.Points)
		}
	}
	counts := func(s *Service) Stats {
		st := s.Stats()
		st.ConnStats, st.Batches, st.BatchSamples = ConnStats{}, 0, 0
		return st
	}
	if got, want := counts(svc), counts(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats after the re-sends:\n%+v\nwant those of a service that never saw them:\n%+v", got, want)
	}
}

func TestServiceRejectsBadSample(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	agent, err := Dial(svc.Addr(), "node-x")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if _, err := agent.Send(0, []float64{1, 2}, nil); err == nil {
		t.Fatal("expected service error for wrong feature width")
	}
	// The connection must survive the error.
	pmc := make([]float64, 10)
	v := 80.0
	if _, err := agent.Send(1, pmc, &v); err != nil {
		t.Fatalf("connection dead after service error: %v", err)
	}
}

func TestServiceUnknownKind(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	conn, err := net.Dial("tcp", svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)
	if err := WriteMsg(w, MsgKind("bogus"), struct{}{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	env, err := ReadMsgLimit(bufio.NewReader(conn), DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != KindError {
		t.Fatalf("reply kind %q want error", env.Kind)
	}
}

func TestProtocolFrameRoundTrip(t *testing.T) {
	leaktest.Check(t)
	var buf bytes.Buffer
	want := Sample{NodeID: "n", Time: 3, PMC: []float64{1, 2, 3}}
	if err := WriteMsg(&buf, KindSample, want); err != nil {
		t.Fatal(err)
	}
	env, err := ReadMsgLimit(bufio.NewReader(&buf), DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	var got Sample
	if err := DecodeBody(env, &got); err != nil {
		t.Fatal(err)
	}
	if got.NodeID != want.NodeID || got.Time != want.Time || len(got.PMC) != 3 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestProtocolOversizedFrameRejected(t *testing.T) {
	leaktest.Check(t)
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB frame length
	if _, err := ReadMsgLimit(bufio.NewReader(&buf), DefaultMaxFrame); err == nil {
		t.Fatal("expected frame-size error")
	}
}

func TestDialUnreachable(t *testing.T) {
	leaktest.Check(t)
	if _, err := Dial("127.0.0.1:1", "x"); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestAgentFetchModel(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	agent, err := Dial(svc.Addr(), "fetcher")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	data, err := agent.FetchModel()
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	// The downloaded model must predict identically to the service's.
	pmc := make([]float64, 10)
	for i := range pmc {
		pmc[i] = 1e9
	}
	a, am := sharedModel(t).SRR.Predict(pmc, 90)
	b, bm := local.SRR.Predict(pmc, 90)
	if a != b || am != bm {
		t.Fatalf("local model diverges: (%g,%g) vs (%g,%g)", a, am, b, bm)
	}
	// The connection stays usable for normal samples afterwards.
	v := 85.0
	if _, err := agent.Send(0, pmc, &v); err != nil {
		t.Fatal(err)
	}
}

// TestStatsJSONKeyOrder pins the KindStats reply body: a populated Stats
// marshals to exactly these bytes — every key, in this order — and decodes
// back to itself, so where the connection accounting lives in the Go types
// cannot show on the wire.
func TestStatsJSONKeyOrder(t *testing.T) {
	var st Stats
	st.Nodes, st.Samples, st.Estimates, st.Measured, st.Relayed = 1, 2, 3, 4, 5
	st.Conns, st.PeakConns, st.Rejected, st.TimedOut = 6, 7, 8, 9
	st.NodeConns = map[string]int{"node-a": 10}
	st.BinConns, st.BinFrames, st.JSONFrames = 11, 12, 13
	st.Batches, st.BatchSamples = 14, 15
	st.Store.Nodes = 16
	got, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"nodes":1,"samples":2,"estimates":3,"measured":4,"relayed":5,` +
		`"conns":6,"peak_conns":7,"rejected":8,"timed_out":9,"node_conns":{"node-a":10},` +
		`"bin_conns":11,"bin_frames":12,"json_frames":13,"batches":14,"batch_samples":15,` +
		`"store":{"nodes":16,"series":0,"points":0,"bytes":0,"raw_bytes":0,"bytes_per_point":0,` +
		`"compression_ratio":0,"ingested":0,"queries":0,"points_returned":0,"evicted_points":0,` +
		`"cache_hits":0,"cache_misses":0,"cache_points":0,"wal_bytes":0,"wal_fsyncs":0,` +
		`"wal_records":0,"wal_replayed_records":0,"snapshots":0,"snapshot_age_seconds":0}}`
	if string(got) != want {
		t.Fatalf("Stats JSON:\ngot  %s\nwant %s", got, want)
	}
	var back Stats
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, st) {
		t.Fatalf("Stats JSON round trip: got %+v, want %+v", back, st)
	}
}
