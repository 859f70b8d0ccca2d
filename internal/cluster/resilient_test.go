package cluster

import (
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"
	"weak"

	"highrpm/internal/cluster/faultnet"
	"highrpm/internal/core"
	"highrpm/internal/leaktest"
	"highrpm/internal/platform"
	"highrpm/internal/workload"
)

// faultAgentOptions returns aggressive timings so fault tests converge in
// milliseconds instead of the production seconds.
func faultAgentOptions() AgentOptions {
	opts := DefaultAgentOptions()
	opts.DialTimeout = time.Second
	opts.RequestTimeout = 150 * time.Millisecond
	opts.BackoffMin = time.Millisecond
	opts.BackoffMax = 20 * time.Millisecond
	opts.SendRetries = 2
	opts.FailThreshold = 2
	opts.BufferLimit = 256
	return opts
}

// localRecord captures one degraded-mode sample and what the agent
// answered for it, so the reference monitor can be replayed against it.
type localRecord struct {
	pmc      []float64
	measured *float64
	est      Estimate
}

// runFaultScenario drives total samples through a ResilientAgent behind a
// scripted faultnet proxy, then keeps nudging until the agent is
// reconnected with an empty replay buffer. It returns the degraded-mode
// records in arrival order.
func runFaultScenario(t *testing.T, svc *Service, scripts []faultnet.ConnScript, opts AgentOptions, total int) (*ResilientAgent, []localRecord) {
	t.Helper()
	proxy := faultnet.New(svc.Addr(), scripts...)
	if err := proxy.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	ra, err := DialResilient(proxy.Addr(), "node-ft", opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ra.Close() })

	node, err := platform.NewNode(platform.ARMConfig(), 21)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Find("HPCC/FFT")
	if err != nil {
		t.Fatal(err)
	}
	node.Attach(b)

	var locals []localRecord
	push := func(i int) {
		s := node.Step(1)
		var measured *float64
		if i%10 == 0 {
			v := s.PNode
			measured = &v
		}
		pmc := s.Counters.Slice()
		est, err := ra.Send(s.Time, pmc, measured)
		if err != nil {
			t.Fatalf("sample %d: Send must absorb transport faults, got %v", i, err)
		}
		if est.NodeID != "node-ft" {
			t.Fatalf("sample %d: estimate for %q", i, est.NodeID)
		}
		// No estimate may be silently wrong: an IM reading always wins,
		// locally and remotely.
		if measured != nil && est.PNode != *measured {
			t.Fatalf("sample %d: measured %g not honoured (got %g, local=%v)", i, *measured, est.PNode, est.Local)
		}
		if math.IsNaN(est.PNode) || math.IsNaN(est.PCPU) || math.IsNaN(est.PMEM) {
			t.Fatalf("sample %d: NaN estimate %+v", i, est)
		}
		if est.Local {
			locals = append(locals, localRecord{pmc: append([]float64(nil), pmc...), measured: measured, est: est})
		}
		// Give the backoff schedule room: back-to-back sends would
		// otherwise outrun even a 1 ms probe delay.
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < total; i++ {
		push(i)
	}
	// Nudge until recovered: reconnected, buffer drained.
	for i := total; i < total+200; i++ {
		if ra.Mode() == ModeConnected && ra.Pending() == 0 {
			break
		}
		push(i)
	}
	return ra, locals
}

// verifyRecovered asserts the common post-fault invariants of the
// acceptance criteria.
func verifyRecovered(t *testing.T, ra *ResilientAgent, locals []localRecord, wantDegraded bool) {
	t.Helper()
	c := ra.Counters()
	if ra.Mode() != ModeConnected {
		t.Fatalf("agent ended %v (counters %+v)", ra.Mode(), c)
	}
	if ra.Pending() != 0 {
		t.Fatalf("%d samples still buffered (counters %+v)", ra.Pending(), c)
	}
	if c.Reconnects < 1 {
		t.Fatalf("agent never reconnected (counters %+v)", c)
	}
	if c.Dropped != 0 {
		t.Fatalf("%d buffered samples dropped (counters %+v)", c.Dropped, c)
	}
	if c.Replayed != c.Buffered {
		t.Fatalf("buffered %d but replayed %d — not every sample was acknowledged", c.Buffered, c.Replayed)
	}
	if wantDegraded && c.Degradations < 1 {
		t.Fatalf("scenario should have degraded the agent (counters %+v)", c)
	}
	if int64(len(locals)) != c.LocalServed {
		t.Fatalf("recorded %d local estimates, counters say %d", len(locals), c.LocalServed)
	}
	// The §6.4.6 contract: every degraded estimate is bit-for-bit what a
	// fresh Monitor over the fetched snapshot produces for the episode's
	// samples. All locals belong to one episode here (the fault scripts
	// hit connection 0 only, so after recovery nothing degrades again).
	if len(locals) > 0 {
		ref := core.NewMonitor(ra.Model())
		for i, rec := range locals {
			want, err := ref.Push(rec.pmc, rec.measured)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(rec.est.PNode) != math.Float64bits(want.PNode) ||
				math.Float64bits(rec.est.PCPU) != math.Float64bits(want.PCPU) ||
				math.Float64bits(rec.est.PMEM) != math.Float64bits(want.PMEM) ||
				rec.est.FromMeasurement != want.FromMeasurement {
				t.Fatalf("degraded estimate %d diverges from the snapshot model: got (%x,%x,%x) want (%x,%x,%x)",
					i,
					math.Float64bits(rec.est.PNode), math.Float64bits(rec.est.PCPU), math.Float64bits(rec.est.PMEM),
					math.Float64bits(want.PNode), math.Float64bits(want.PCPU), math.Float64bits(want.PMEM))
			}
		}
	}
}

// TestResilientAgentFaults is the fault-injection matrix of the PR 4
// acceptance criteria: for every scripted fault the agent must end the
// test reconnected with all buffered samples acknowledged and every
// degraded estimate bit-exact against the snapshot model.
//
// Connection numbering: the agent's initial connect is proxied connection
// 0 (its Hello is up-frame 1 and its model fetch up-frame 2, with the
// matching replies down-frames 1 and 2); each reconnect is the next
// connection.
func TestResilientAgentFaults(t *testing.T) {
	leaktest.Check(t)
	cases := []struct {
		name    string
		scripts []faultnet.ConnScript
		tune    func(*AgentOptions)
		total   int
		// wantDegraded: the script is severe enough that the agent must
		// have flipped to ModeDegraded at least once.
		wantDegraded bool
	}{
		{
			// A latency spike beyond the request deadline: sends time out
			// until the reconnect lands on the clean connection 1.
			name: "latency-spike",
			scripts: []faultnet.ConnScript{
				{Up: faultnet.Fault{Latency: 400 * time.Millisecond}},
			},
			total: 12,
		},
		{
			// The first estimate reply is cut off after 5 bytes: a
			// byte-level truncated frame.
			name: "truncated-reply",
			scripts: []faultnet.ConnScript{
				{Down: faultnet.Fault{AfterFrames: 3, AfterBytes: 5, Action: faultnet.ActClose}},
			},
			total: 12,
		},
		{
			// The first sample is reset mid-message (10 bytes into the
			// frame, then RST).
			name: "mid-message-reset",
			scripts: []faultnet.ConnScript{
				{Up: faultnet.Fault{AfterFrames: 3, AfterBytes: 10, Action: faultnet.ActReset}},
			},
			total: 12,
		},
		{
			// Accept-then-silence, twice: the service's replies vanish on
			// connection 0 after the handshake and connection 1 is
			// blackholed from its first reply, so the agent must degrade,
			// serve locally, and recover on connection 2.
			name: "blackhole",
			scripts: []faultnet.ConnScript{
				{Down: faultnet.Fault{AfterFrames: 3, Action: faultnet.ActBlackhole}},
				{Down: faultnet.Fault{AfterFrames: 1, Action: faultnet.ActBlackhole}},
			},
			tune: func(o *AgentOptions) {
				o.SendRetries = 1                      // one timeout per send keeps the test fast
				o.DialTimeout = 300 * time.Millisecond // bounds the blackholed re-Hello
			},
			total:        12,
			wantDegraded: true,
		},
		{
			// Drop-at-message-N: the connection dies the moment the agent
			// sends its 4th frame (= 2 handshake frames + sample 3).
			name: "drop-at-N",
			scripts: []faultnet.ConnScript{
				{Up: faultnet.Fault{AfterFrames: 6, Action: faultnet.ActClose}},
			},
			total: 12,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leaktest.Check(t)
			svc := startServiceWith(t, ServiceOptions{
				ReadTimeout:  2 * time.Second,
				WriteTimeout: 2 * time.Second,
			})
			opts := faultAgentOptions()
			if tc.tune != nil {
				tc.tune(&opts)
			}
			ra, locals := runFaultScenario(t, svc, tc.scripts, opts, tc.total)
			verifyRecovered(t, ra, locals, tc.wantDegraded)
			// Every sample was delivered (live, retried, or replayed), and a
			// re-send after a lost reply is answered from the record
			// without counting again: the service counts each sample once.
			// The agent pushed tc.total samples, more if it needed nudging.
			c := ra.Counters()
			if st := svc.Stats(); st.Samples != c.Sent+c.Replayed || st.Samples < int64(tc.total) {
				t.Fatalf("service counted %d samples, the agent delivered %d live and %d replayed", st.Samples, c.Sent, c.Replayed)
			}
		})
	}
}

// TestResilientAgentDegradedBuffersAndReplays pins the degraded-mode
// bookkeeping on a long outage: the service dies mid-stream (listener and
// all), the agent flips to degraded and buffers, and a fresh service on
// the same address gets the whole backlog on reconnect.
func TestResilientAgentDegradedBuffersAndReplays(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(sharedModel(t))
	svc.Logf = t.Logf
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := svc.Addr()

	opts := faultAgentOptions()
	opts.SendRetries = 1
	ra, err := DialResilient(addr, "node-out", opts, nil)
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	defer ra.Close()

	node, err := platform.NewNode(platform.ARMConfig(), 33)
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	b, err := workload.Find("HPCC/FFT")
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	node.Attach(b)
	send := func(i int) Estimate {
		s := node.Step(1)
		var measured *float64
		if i%5 == 0 {
			v := s.PNode
			measured = &v
		}
		est, err := ra.Send(s.Time, s.Counters.Slice(), measured)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		time.Sleep(2 * time.Millisecond)
		return est
	}

	for i := 0; i < 5; i++ {
		if est := send(i); est.Local {
			t.Fatalf("sample %d served locally while the service was up", i)
		}
	}
	// Outage: everything about the service goes away.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	degradedSeen := false
	for i := 5; i < 15; i++ {
		est := send(i)
		if !est.Local {
			t.Fatalf("sample %d not served locally during the outage", i)
		}
		if ra.Mode() == ModeDegraded {
			degradedSeen = true
		}
	}
	if !degradedSeen {
		t.Fatal("agent never entered degraded mode during a 10-sample outage")
	}
	if ra.Pending() != 10 {
		t.Fatalf("%d samples buffered, want 10", ra.Pending())
	}

	// Recovery: a new service appears on the same address.
	svc2 := NewServiceWith(sharedModel(t), DefaultServiceOptions())
	svc2.Logf = t.Logf
	if err := svc2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { svc2.Close() })
	deadline := time.Now().Add(10 * time.Second)
	for i := 15; ra.Mode() != ModeConnected || ra.Pending() > 0; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("agent never recovered: mode %v, %d pending, counters %+v", ra.Mode(), ra.Pending(), ra.Counters())
		}
		send(i)
	}
	c := ra.Counters()
	if c.Replayed != c.Buffered || c.Dropped != 0 {
		t.Fatalf("replay incomplete: %+v", c)
	}
	// The replayed backlog reached the new service's monitor and store.
	if st := svc2.Stats(); st.Samples < c.Replayed {
		t.Fatalf("new service saw %d samples, expected at least the %d replayed", st.Samples, c.Replayed)
	}
	if c.ModelSyncs < 2 {
		t.Fatalf("model not resynced on reconnect: %+v", c)
	}
}

// TestResilientAgentBufferCap: the replay buffer must stay bounded, with
// overflow counted, not crashed on.
func TestResilientAgentBufferCap(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(sharedModel(t))
	svc.Logf = t.Logf
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	opts := faultAgentOptions()
	opts.SendRetries = 1
	opts.BufferLimit = 4
	// Long backoff so the outage loop below never probes the dead
	// address.
	opts.BackoffMin = time.Hour
	opts.BackoffMax = time.Hour
	ra, err := DialResilient(svc.Addr(), "node-cap", opts, nil)
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	defer ra.Close()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	pmc := make([]float64, 10)
	for i := 0; i < 10; i++ {
		v := 80.0
		if _, err := ra.Send(float64(i), pmc, &v); err != nil {
			t.Fatal(err)
		}
	}
	if ra.Pending() != 4 {
		t.Fatalf("buffer holds %d, cap is 4", ra.Pending())
	}
	if c := ra.Counters(); c.Dropped != 6 || c.Buffered != 10 {
		t.Fatalf("counters %+v, want 10 buffered / 6 dropped", c)
	}
}

// TestResilientReplayReleasesSamples: once a degraded episode's backlog
// has replayed, the agent holds no reference to the replayed samples. The
// buffer used to advance by reslicing, so the drained slice kept its
// backing array reachable, and with it every slot's PMC copy — up to
// BufferLimit of them per agent, until a later append reallocated.
func TestResilientReplayReleasesSamples(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(sharedModel(t))
	svc.Logf = t.Logf
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := svc.Addr()
	opts := faultAgentOptions()
	opts.SendRetries = 1
	ra, err := DialResilient(addr, "node-release", opts, nil)
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	defer ra.Close()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	pmc := benchPMC()
	const outage = 10
	for i := 0; i < outage; i++ {
		if est, err := ra.Send(float64(i), pmc, nil); err != nil || !est.Local {
			t.Fatalf("sample %d during the outage: %+v, err %v", i, est, err)
		}
	}
	if ra.Pending() != outage {
		t.Fatalf("%d samples buffered, want %d", ra.Pending(), outage)
	}
	copies := make([]weak.Pointer[float64], outage)
	for i := range copies {
		copies[i] = weak.Make(&ra.buffer[i].PMC[0])
	}

	svc2 := NewService(sharedModel(t))
	svc2.Logf = t.Logf
	if err := svc2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { svc2.Close() })
	// Past the longest backoff the next Send redials and replays the whole
	// backlog before it goes out live.
	time.Sleep(3 * opts.BackoffMax)
	if est, err := ra.Send(outage, pmc, nil); err != nil || est.Local {
		t.Fatalf("first sample after the outage: %+v, err %v", est, err)
	}
	if c := ra.Counters(); ra.Pending() != 0 || c.Replayed != outage {
		t.Fatalf("%d pending after recovery, counters %+v", ra.Pending(), c)
	}
	runtime.GC()
	for i, c := range copies {
		if c.Value() != nil {
			t.Fatalf("replayed sample %d's PMC copy is still reachable from the agent", i)
		}
	}
}

// TestResilientAgentServiceErrorPassesThrough: a KindError reply is a
// healthy transport — it must surface to the caller, not trigger
// reconnects or local fallback.
func TestResilientAgentServiceErrorPassesThrough(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	ra, err := DialResilient(svc.Addr(), "node-se", faultAgentOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	if _, err := ra.Send(0, []float64{1, 2}, nil); err == nil {
		t.Fatal("expected a service error for the wrong feature width")
	} else {
		var se *ServiceError
		if !errors.As(err, &se) {
			t.Fatalf("want *ServiceError, got %T: %v", err, err)
		}
	}
	c := ra.Counters()
	if c.Reconnects != 0 || c.LocalServed != 0 || ra.Mode() != ModeConnected {
		t.Fatalf("service error mis-handled: %+v", c)
	}
	// The connection is still live.
	pmc := make([]float64, 10)
	v := 80.0
	est, err := ra.Send(1, pmc, &v)
	if err != nil || est.Local {
		t.Fatalf("connection dead after service error: %v (local=%v)", err, est.Local)
	}
}

// TestResilientSendCopiesBufferedSample is the regression test for the
// replay-buffer aliasing bug: Send borrows pmc and measured only for the
// call, so a caller that reuses one buffer for every sample — the fleet
// router forwards a connection's framer scratch — must still see the
// values each sample had when it was sent arrive at the service on replay.
// The caller here scribbles over its buffers after every Send; the replayed
// history must match a reference service fed pristine copies.
func TestResilientSendCopiesBufferedSample(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(sharedModel(t))
	svc.Logf = t.Logf
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := svc.Addr()
	const nodeID = "node-alias"
	opts := faultAgentOptions()
	opts.SendRetries = 1
	ra, err := DialResilient(addr, nodeID, opts, nil)
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	defer ra.Close()

	// ref is never dialed: it is fed the same samples in process, from
	// copies the sender cannot touch.
	ref := NewService(sharedModel(t))
	ref.Logf = t.Logf
	t.Cleanup(func() { ref.Close() })

	node, err := platform.NewNode(platform.ARMConfig(), 35)
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	b, err := workload.Find("HPCC/FFT")
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	node.Attach(b)
	var (
		pmcBuf  []float64 // the one PMC buffer every Send borrows
		measBuf float64   // the one IM reading every Send points at
		sent    int
	)
	send := func(toRef bool) Estimate {
		s := node.Step(1)
		pmcBuf = append(pmcBuf[:0], s.Counters.Slice()...)
		var measured *float64
		if sent%3 == 0 {
			measBuf = s.PNode
			measured = &measBuf
		}
		if toRef {
			var m *float64
			if measured != nil {
				v := *measured
				m = &v
			}
			if _, err := ref.processSample(nodeID, s.Time, append([]float64(nil), pmcBuf...), m, nil); err != nil {
				t.Fatal(err)
			}
		}
		est, err := ra.Send(s.Time, pmcBuf, measured)
		if err != nil {
			t.Fatalf("sample %d: %v", sent, err)
		}
		// The borrow is over: overwrite everything Send was handed.
		for i := range pmcBuf {
			pmcBuf[i] = -1
		}
		measBuf = -1
		sent++
		time.Sleep(2 * time.Millisecond)
		return est
	}

	for i := 0; i < 3; i++ {
		send(false) // lands on svc, which is about to go away
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if est := send(true); !est.Local {
			t.Fatalf("sample %d not served locally during the outage", sent-1)
		}
	}
	if ra.Pending() != 10 {
		t.Fatalf("%d samples buffered, want 10", ra.Pending())
	}

	svc2 := NewService(sharedModel(t))
	svc2.Logf = t.Logf
	if err := svc2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { svc2.Close() })
	deadline := time.Now().Add(10 * time.Second)
	for ra.Mode() != ModeConnected || ra.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("agent never recovered: mode %v, %d pending, counters %+v", ra.Mode(), ra.Pending(), ra.Counters())
		}
		send(true)
	}
	if c := ra.Counters(); c.Replayed != c.Buffered || c.Replayed < 10 || c.Dropped != 0 {
		t.Fatalf("replay incomplete: %+v", c)
	}

	// svc2 saw exactly what ref saw — the backlog with its original values,
	// then the live tail — so the two histories must be byte-identical.
	for _, ch := range []string{"p_node", "p_cpu", "ipmi"} {
		got, err := svc2.Store().QuerySeries(nodeID, ch, 0, float64(sent), 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Store().QuerySeries(nodeID, ch, 0, float64(sent), 1)
		if err != nil {
			t.Fatal(err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if len(want.Points) < 10 {
			t.Fatalf("reference holds %d %s points, want at least the 10 replayed", len(want.Points), ch)
		}
		if string(gj) != string(wj) {
			t.Fatalf("replayed %s history diverges from what was sent:\ngot  %s\nwant %s", ch, gj, wj)
		}
	}
}

// TestModelCacheSharesDecodedSnapshot: agents dialed through one ModelCache
// each fetch their own snapshot (ModelSyncs counts it) but share a single
// decoded model; an agent dialed without the cache keeps a private one.
func TestModelCacheSharesDecodedSnapshot(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	var cache ModelCache
	dial := func(node string, models *ModelCache) *ResilientAgent {
		t.Helper()
		ra, err := DialResilient(svc.Addr(), node, faultAgentOptions(), models)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ra.Close() })
		return ra
	}
	a, b, private := dial("shared-a", &cache), dial("shared-b", &cache), dial("private", nil)
	if a.Model() == nil || a.Model() != b.Model() {
		t.Fatalf("cached agents hold distinct models: %p, %p", a.Model(), b.Model())
	}
	if private.Model() == a.Model() {
		t.Fatal("an agent dialed without the cache shares the cached model")
	}
	for _, ra := range []*ResilientAgent{a, b, private} {
		if c := ra.Counters(); c.ModelSyncs != 1 {
			t.Fatalf("%s: ModelSyncs = %d, want 1", ra.NodeID(), c.ModelSyncs)
		}
	}
	if len(cache.models) != 1 {
		t.Fatalf("cache holds %d models for one snapshot", len(cache.models))
	}
	if _, err := cache.decode([]byte("not a model")); err == nil {
		t.Fatal("garbage snapshot decoded")
	}
	if len(cache.models) != 1 {
		t.Fatalf("a failed decode was cached: %d entries", len(cache.models))
	}
}

// TestJitterSeededPerNode: an agent's backoff jitter is seeded from the
// service address and its node ID, so the agents of different nodes draw
// different delays and do not retry in lockstep, while a node that dials
// the same service again draws its own sequence again.
func TestJitterSeededPerNode(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	firstDraw := func(node string) float64 {
		t.Helper()
		ra, err := DialResilient(svc.Addr(), node, DefaultAgentOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer ra.Close()
		return ra.rng.Float64()
	}
	a, b, again := firstDraw("node-a"), firstDraw("node-b"), firstDraw("node-a")
	if a == b {
		t.Fatalf("node-a and node-b both draw %v first: their agents back off in lockstep", a)
	}
	if a != again {
		t.Fatalf("node-a drew %v, then %v after a redial", a, again)
	}
}
