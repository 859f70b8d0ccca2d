package cluster

import (
	"math"
	"testing"

	"highrpm/internal/leaktest"
	"highrpm/internal/platform"
	"highrpm/internal/tsdb"
	"highrpm/internal/workload"
)

// simSamples generates n seconds of one simulated node's telemetry with an
// IM reading every missInterval-th second.
func simSamples(t *testing.T, n, missInterval int, seed int64) []Sample {
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
	out := make([]Sample, n)
	for i := range out {
		s := node.Step(1)
		out[i] = Sample{Time: s.Time, PMC: s.Counters.Slice()}
		if i%missInterval == 0 {
			v := s.PNode
			out[i].Measured = &v
		}
	}
	return out
}

// streamSamples pushes simSamples' telemetry through agent, returning the
// estimates the service produced.
func streamSamples(t *testing.T, agent *Agent, n, missInterval int, seed int64) []Estimate {
	t.Helper()
	ests := make([]Estimate, 0, n)
	for _, smp := range simSamples(t, n, missInterval, seed) {
		est, err := agent.Send(smp.Time, smp.PMC, smp.Measured)
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, est)
	}
	return ests
}

// TestServiceRecordsAndServesHistory is the end-to-end acceptance path:
// stream 60 s of telemetry, then fetch a 60 s window of p_cpu at 10 s
// rollup over TCP and check it against the live estimates.
func TestServiceRecordsAndServesHistory(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	agent, err := Dial(svc.Addr(), "node-h")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	ests := streamSamples(t, agent, 60, 10, 7)

	// Raw query must return the service's estimates bit-exactly.
	raw, err := agent.Query(QueryRequest{NodeID: "node-h", Channel: "p_node", From: 0, To: 59, ResolutionS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Points) != 60 {
		t.Fatalf("%d raw points, want 60", len(raw.Points))
	}
	for i, p := range raw.Points {
		if math.Float64bits(float64(p.Value)) != math.Float64bits(ests[i].PNode) {
			t.Fatalf("raw p_node[%d] = %g, estimate was %g", i, float64(p.Value), ests[i].PNode)
		}
	}

	// The acceptance criterion: a 60 s window of p_cpu at 10 s rollup.
	body, err := agent.Query(QueryRequest{NodeID: "node-h", Channel: "p_cpu", From: 0, To: 59, ResolutionS: 10})
	if err != nil {
		t.Fatal(err)
	}
	if body.ResolutionS != 10 || body.Channel != "p_cpu" {
		t.Fatalf("series header = %+v", body)
	}
	if len(body.Points) != 6 {
		t.Fatalf("%d buckets, want 6", len(body.Points))
	}
	for bi, p := range body.Points {
		if p.Count != 10 {
			t.Fatalf("bucket %d count %d, want 10", bi, p.Count)
		}
		var lo, hi, sum float64 = math.Inf(1), math.Inf(-1), 0
		for i := bi * 10; i < (bi+1)*10; i++ {
			v := ests[i].PCPU
			lo, hi, sum = math.Min(lo, v), math.Max(hi, v), sum+v
		}
		if float64(p.Min) != lo || float64(p.Max) != hi || math.Abs(float64(p.Value)-sum/10) > 1e-9 {
			t.Fatalf("bucket %d = %+v, want min %g max %g mean %g", bi, p, lo, hi, sum/10)
		}
	}

	// The sparse ipmi channel survives the wire: NaN on 54 of 60 seconds.
	ipmi, err := agent.Query(QueryRequest{NodeID: "node-h", Channel: "ipmi", From: 0, To: 59})
	if err != nil {
		t.Fatal(err)
	}
	var readings int
	for i, p := range ipmi.Points {
		if math.IsNaN(float64(p.Value)) {
			continue
		}
		readings++
		if i%10 != 0 {
			t.Fatalf("ipmi reading on second %d", i)
		}
	}
	if readings != 6 {
		t.Fatalf("%d ipmi readings, want 6", readings)
	}

	// Stats now carry store figures.
	st, err := agent.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Store.Nodes != 1 || st.Store.Series != tsdb.NumChannels || st.Store.Points != int64(tsdb.NumChannels*60) {
		t.Fatalf("store stats = %+v", st.Store)
	}
}

// TestServiceAggregateQuery sums a channel across nodes with an empty
// NodeID.
func TestServiceAggregateQuery(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	a, err := Dial(svc.Addr(), "agg-1")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(svc.Addr(), "agg-2")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	estA := streamSamples(t, a, 20, 10, 11)
	estB := streamSamples(t, b, 20, 10, 12)

	body, err := a.Query(QueryRequest{Channel: "p_node", From: 0, To: 19})
	if err != nil {
		t.Fatal(err)
	}
	if len(body.Points) != 20 || body.NodeID != "" {
		t.Fatalf("aggregate = %d points, node %q", len(body.Points), body.NodeID)
	}
	for i, p := range body.Points {
		want := estA[i].PNode + estB[i].PNode
		if math.Abs(float64(p.Value)-want) > 1e-9 || p.Count != 2 {
			t.Fatalf("aggregate[%d] = %+v, want %g from 2 nodes", i, p, want)
		}
	}
}

// TestServiceQueryErrors: bad channel / node / resolution come back as
// KindError without killing the connection.
func TestServiceQueryErrors(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	agent, err := Dial(svc.Addr(), "node-q")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	streamSamples(t, agent, 5, 10, 3)
	for _, req := range []QueryRequest{
		{NodeID: "node-q", Channel: "bogus", To: 10},
		{NodeID: "ghost", Channel: "p_node", To: 10},
		{NodeID: "node-q", Channel: "p_node", To: 10, ResolutionS: 30},
	} {
		if _, err := agent.Query(req); err == nil {
			t.Fatalf("query %+v succeeded, want error", req)
		}
	}
	// The connection must survive the errors.
	if _, err := agent.Query(QueryRequest{NodeID: "node-q", Channel: "p_node", To: 10}); err != nil {
		t.Fatalf("connection dead after query errors: %v", err)
	}
}

// TestServiceCloseFlushesStore pins the shutdown ordering: Close waits for
// the per-connection handlers, seals the open rollup buckets, and leaves
// the store queryable but read-only.
func TestServiceCloseFlushesStore(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(sharedModel(t))
	svc.Logf = func(string, ...any) {}
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	agent, err := Dial(svc.Addr(), "node-c")
	if err != nil {
		t.Fatal(err)
	}
	streamSamples(t, agent, 15, 10, 5)
	agent.Close()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	store := svc.Store()
	if err := store.Ingest("node-c", 99, tsdb.Sample{}); err == nil {
		t.Fatal("store writable after service close")
	}
	// The partial [10,20) bucket was flushed by Close.
	pts, err := store.Query("node-c", tsdb.ChanPNode, 0, 14, tsdb.TenSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Count != 10 || pts[1].Count != 5 {
		t.Fatalf("post-close buckets = %+v", pts)
	}
}

// TestServiceSetStore: a custom-sized store (the monitor CLI's -retain
// flag) is honoured and enforces retention.
func TestServiceSetStore(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(sharedModel(t))
	svc.Logf = func(string, ...any) {}
	opts := tsdb.Options{BlockPoints: 16, RetainRaw: 40, Retain10s: 40, Retain60s: 40}
	svc.SetStore(tsdb.New(opts))
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	agent, err := Dial(svc.Addr(), "node-r")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	streamSamples(t, agent, 120, 10, 9)
	body, err := agent.Query(QueryRequest{NodeID: "node-r", Channel: "p_node", From: 0, To: 119})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(body.Points); n < 40 || n > 56 {
		t.Fatalf("retained %d points, want ≈40", n)
	}
	if last := body.Points[len(body.Points)-1].Time; last != 119 {
		t.Fatalf("newest point at t=%g, want 119", last)
	}
}
