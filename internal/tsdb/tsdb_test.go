package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"highrpm/internal/leaktest"
)

// ingestRamp stores n seconds of a simple deterministic workload for node:
// p_node ramps, components split it 70/30, ipmi fires every missInterval.
func ingestRamp(t *testing.T, st *Store, node string, n, missInterval int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := 80 + float64(i%40)
		ipmi := math.NaN()
		if i%missInterval == 0 {
			ipmi = p
		}
		err := st.Ingest(node, float64(i), Sample{
			PNode: p, PCPU: 0.7 * p, PMEM: 0.3 * p, PNodePrime: p - 0.5, IPMI: ipmi,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreRawRoundTrip(t *testing.T) {
	st := New(Options{})
	ingestRamp(t, st, "node-a", 120, 10)
	for _, ch := range Channels() {
		pts, err := st.Query("node-a", ch, 0, 119, Raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 120 {
			t.Fatalf("%s: %d raw points, want 120", ch, len(pts))
		}
	}
	pts, err := st.Query("node-a", ChanIPMI, 0, 119, Raw)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if p.Time != float64(i) {
			t.Fatalf("point %d time %g", i, p.Time)
		}
		want := math.NaN()
		if i%10 == 0 {
			want = 80 + float64(i%40)
		}
		if !sameBits(p.Value, want) {
			t.Fatalf("ipmi[%d] = %x want %x", i, math.Float64bits(p.Value), math.Float64bits(want))
		}
		if p.Count != 1 || !sameBits(p.Min, want) || !sameBits(p.Max, want) {
			t.Fatalf("raw point %d not self-describing: %+v", i, p)
		}
	}
}

func TestStoreRollups(t *testing.T) {
	st := New(Options{})
	ingestRamp(t, st, "n", 65, 10)
	pts, err := st.Query("n", ChanPNode, 0, 64, TenSeconds)
	if err != nil {
		t.Fatal(err)
	}
	// Six sealed buckets plus the open [60,70) one.
	if len(pts) != 7 {
		t.Fatalf("%d buckets, want 7", len(pts))
	}
	// Bucket [0,10): values 80..89 → min 80, max 89, mean 84.5, count 10.
	b0 := pts[0]
	if b0.Time != 0 || b0.Min != 80 || b0.Max != 89 || b0.Count != 10 || math.Abs(b0.Value-84.5) > 1e-9 {
		t.Fatalf("bucket 0 = %+v", b0)
	}
	// Open bucket [60,70) holds t=60..64 → values 100..104.
	open := pts[6]
	if open.Time != 60 || open.Count != 5 || open.Min != 100 || open.Max != 104 {
		t.Fatalf("open bucket = %+v", open)
	}
	// The sparse ipmi channel: each sealed bucket has exactly one reading.
	ipts, err := st.Query("n", ChanIPMI, 0, 59, TenSeconds)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ipts {
		if p.Count != 1 {
			t.Fatalf("ipmi bucket %d count %d, want 1", i, p.Count)
		}
	}
	// Minute rollup: one sealed bucket [0,60) with all 60 points.
	mpts, err := st.Query("n", ChanPNode, 0, 59, Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(mpts) != 1 || mpts[0].Count != 60 || mpts[0].Min != 80 || mpts[0].Max != 119 {
		t.Fatalf("minute buckets = %+v", mpts)
	}
}

func TestStoreAllNaNBucket(t *testing.T) {
	st := New(Options{})
	// 20 s of ipmi silence: both sealed 10 s buckets are gap buckets.
	for i := 0; i < 21; i++ {
		if err := st.Ingest("n", float64(i), Sample{PNode: 90, PCPU: 60, PMEM: 30, PNodePrime: 90, IPMI: math.NaN()}); err != nil {
			t.Fatal(err)
		}
	}
	pts, err := st.Query("n", ChanIPMI, 0, 19, TenSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d buckets, want 2", len(pts))
	}
	for _, p := range pts {
		if p.Count != 0 || !math.IsNaN(p.Value) || !math.IsNaN(p.Min) || !math.IsNaN(p.Max) {
			t.Fatalf("gap bucket = %+v", p)
		}
	}
}

func TestStoreQueryValidation(t *testing.T) {
	st := New(Options{})
	ingestRamp(t, st, "n", 5, 10)
	if _, err := st.Query("n", Channel("bogus"), 0, 10, Raw); err == nil {
		t.Fatal("unknown channel accepted")
	}
	if _, err := st.Query("n", ChanPNode, 0, 10, Resolution(7)); err == nil {
		t.Fatal("bad resolution accepted")
	}
	if _, err := st.Query("ghost", ChanPNode, 0, 10, Raw); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := ParseResolution(30); err == nil {
		t.Fatal("ParseResolution(30) accepted")
	}
	if r, err := ParseResolution(0); err != nil || r != Raw {
		t.Fatalf("ParseResolution(0) = %v, %v", r, err)
	}
}

func TestStoreAggregate(t *testing.T) {
	leaktest.Check(t)
	st := New(Options{})
	for i := 0; i < 30; i++ {
		if err := st.Ingest("a", float64(i), Sample{PNode: 100, PCPU: 70, PMEM: 30, PNodePrime: 100, IPMI: math.NaN()}); err != nil {
			t.Fatal(err)
		}
		if err := st.Ingest("b", float64(i), Sample{PNode: 50, PCPU: 35, PMEM: 15, PNodePrime: 50, IPMI: math.NaN()}); err != nil {
			t.Fatal(err)
		}
	}
	pts, err := st.Aggregate(ChanPNode, 0, 29, Raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 30 {
		t.Fatalf("%d aggregate points, want 30", len(pts))
	}
	for _, p := range pts {
		if p.Value != 150 || p.Count != 2 {
			t.Fatalf("aggregate point = %+v, want cluster power 150 from 2 nodes", p)
		}
	}
	// Rollup aggregate: sealed buckets sum per-node means.
	rpts, err := st.Aggregate(ChanPCPU, 0, 19, TenSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rpts) != 2 || rpts[0].Value != 105 || rpts[0].Count != 20 {
		t.Fatalf("rollup aggregate = %+v", rpts)
	}
}

func TestStoreRetentionOption(t *testing.T) {
	st := New(Options{BlockPoints: 32, RetainRaw: 100, Retain10s: 100, Retain60s: 100})
	ingestRamp(t, st, "n", 1000, 10)
	pts, err := st.Query("n", ChanPNode, 0, 999, Raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 100 || len(pts) > 132 {
		t.Fatalf("retained %d raw points, want ≈100", len(pts))
	}
	if pts[len(pts)-1].Time != 999 {
		t.Fatalf("newest point at t=%g, want 999", pts[len(pts)-1].Time)
	}
	st2 := New(Options{BlockPoints: 512, RetainRaw: 100})
	if got := st2.Options().BlockPoints; got != 512 {
		t.Fatalf("store options clobbered: %d", got)
	}
	ingestRamp(t, st2, "n", 1000, 10)
	pts2, err := st2.Query("n", ChanPNode, 0, 999, Raw)
	if err != nil {
		t.Fatal(err)
	}
	// BlockPoints must have been clamped per-series so retention works.
	if len(pts2) > 200 {
		t.Fatalf("retention ineffective with oversized blocks: %d points", len(pts2))
	}
}

func TestStoreCloseSealsAndRefuses(t *testing.T) {
	st := New(Options{})
	ingestRamp(t, st, "n", 15, 10)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Ingest("n", 15, Sample{}); err != ErrClosed {
		t.Fatalf("ingest after close: %v, want ErrClosed", err)
	}
	if err := st.Ingest("new-node", 0, Sample{}); err != ErrClosed {
		t.Fatalf("new-node ingest after close: %v, want ErrClosed", err)
	}
	// The partial [10,20) bucket must have been flushed and stay queryable.
	pts, err := st.Query("n", ChanPNode, 0, 14, TenSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[1].Count != 5 {
		t.Fatalf("post-close buckets = %+v", pts)
	}
	if err := st.Close(); err != nil {
		t.Fatal("second close not idempotent:", err)
	}
}

// TestIngestKeepsNodeTimeOrder: a node's time never goes backwards. A time
// before the node's newest stored point, a non-finite one and one whose
// milliseconds overflow int64 are refused before they reach the series or
// the WAL; an equal time is accepted. Blocks are searched by time, so one
// accepted out-of-order sample would make a raw [2, 7] query answer
// [5 6 7] (t = 0) or [2 3 4 3.5 5 6 7] (t = 3.5).
func TestIngestKeepsNodeTimeOrder(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	st, _, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(node string, tm float64) error { return st.Ingest(node, tm, Sample{PNode: tm}) }
	for i := 0; i < 5; i++ {
		if err := ingest("n", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []float64{0, 3.5, math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		if err := ingest("n", bad); err == nil {
			t.Errorf("t = %g accepted after t = 4", bad)
		}
	}
	if err := ingest("fresh", math.NaN()); err == nil {
		t.Error("a NaN time was accepted for a new node")
	}
	for i := 5; i < 10; i++ {
		if err := ingest("n", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ingest("n", 9); err != nil {
		t.Fatalf("an equal time was refused: %v", err)
	}
	check := func(st *Store) {
		t.Helper()
		pts, err := st.Query("n", ChanPNode, 2, 7, Raw)
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		for _, p := range pts {
			got = append(got, p.Value)
		}
		if fmt.Sprint(got) != "[2 3 4 5 6 7]" {
			t.Fatalf("raw [2, 7] = %v, want [2 3 4 5 6 7]", got)
		}
		if n := st.Stats().Ingested; n != 11 {
			t.Fatalf("%d samples applied, want 11", n)
		}
		if nodes := st.Nodes(); len(nodes) != 1 {
			t.Fatalf("nodes %v, want [n]", nodes)
		}
	}
	check(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, _, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re)
}

func TestStoreStats(t *testing.T) {
	st := New(Options{})
	if s := st.Stats(); s.Nodes != 0 || s.BytesPerPoint != 0 || s.CompressionRatio != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
	ingestRamp(t, st, "a", 600, 10)
	ingestRamp(t, st, "b", 600, 10)
	s := st.Stats()
	if s.Nodes != 2 || s.Series != 2*NumChannels {
		t.Fatalf("stats = %+v", s)
	}
	if s.Points != int64(2*NumChannels*600) {
		t.Fatalf("points = %d", s.Points)
	}
	if s.Bytes <= 0 || s.RawBytes <= 0 || s.Bytes < s.RawBytes {
		t.Fatalf("byte accounting = %+v", s)
	}
	if s.BytesPerPoint >= 16 {
		t.Fatalf("no compression at all: %.1f B/point", s.BytesPerPoint)
	}
}

// quantize rounds to 0.1 W, the paper's bench-probe resolution (§5.2; the
// IPMI path quantises too — see internal/platform).
func quantize(v float64) float64 { return math.Round(v*10) / 10 }

// monitorWorkload generates the synthetic monitor workload used by the
// compression acceptance test and the BenchmarkStoreIngest benchmark:
// phase-programmed power (plateaus like the workload suite's phases) with
// sensor-grade 0.1 W quantisation and sparse IPMI readings.
func monitorWorkload(r *rand.Rand, i int, prev *Sample) Sample {
	base := 70 + 15*float64((i/30)%3) // 30 s phases at three levels
	node := prev.PNode
	if i%30 == 0 || r.Float64() < 0.4 {
		node = quantize(base + 2*r.NormFloat64())
	}
	cpu := prev.PCPU
	mem := prev.PMEM
	if r.Float64() < 0.4 {
		cpu = quantize(0.65 * node)
		mem = quantize(0.25 * node)
	}
	ipmi := math.NaN()
	if i%10 == 0 {
		ipmi = node
	}
	s := Sample{PNode: node, PCPU: cpu, PMEM: mem, PNodePrime: quantize(node + 0.3), IPMI: ipmi}
	*prev = s
	return s
}

// TestCompressionRatioMonitorWorkload pins the ≤ 4 B/sample budget on the
// synthetic monitor workload (deterministic seed), vs 16 B uncompressed.
func TestCompressionRatioMonitorWorkload(t *testing.T) {
	st := New(Options{})
	r := rand.New(rand.NewSource(42))
	prev := Sample{PNode: 70, PCPU: 45, PMEM: 17, PNodePrime: 70, IPMI: math.NaN()}
	const n = 20000
	for i := 0; i < n; i++ {
		if err := st.Ingest("node-00", float64(i), monitorWorkload(r, i, &prev)); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Stats()
	t.Logf("monitor workload: %.2f B/point (%.1fx vs 16 B uncompressed)", s.BytesPerPoint, s.CompressionRatio)
	if s.BytesPerPoint > 4 {
		t.Fatalf("compression budget blown: %.2f B/point > 4", s.BytesPerPoint)
	}
	// Compression must not cost correctness: spot-check bit-exact recovery.
	pts, err := st.Query("node-00", ChanPNode, 0, n-1, Raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != n {
		t.Fatalf("%d points, want %d", len(pts), n)
	}
}
