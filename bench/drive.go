package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"highrpm/internal/cluster"
)

// ops counts what the benchmark attempted and what failed. An operation
// is one sample, one query or one consistency check; a sample whose
// estimate is missing, refused or wrong has failed.
type ops struct {
	attempted, failed int64
	notes             []string // the first few failures, for the report
}

func (o *ops) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.notes) < 8 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// estBits is one returned estimate, kept bit-exact for the oracle.
type estBits struct{ pnode, pcpu, pmem uint64 }

// driverCount is the number of load-generating goroutines: at most four,
// never more than the CPUs, so the generator cannot oversubscribe the box
// it shares with the system under test.
func driverCount() int {
	g := runtime.NumCPU()
	if g > 4 {
		g = 4
	}
	return g
}

// driver is one load-generating goroutine's state. It owns a fixed set of
// nodes, one cluster.Agent each, and has at most one request in flight.
type driver struct {
	g      *ingest
	nodes  []int // indices into g.in.nodes
	agents []*cluster.Agent
	sawIM  []bool
	sent   []int // samples sent per owned node, never reset
	tick   int   // next tick to send, the same for every owned node

	ops      ops
	acked    atomic.Int64 // estimates verified since the window began; the prefix reading sums it across drivers
	ackedAll int64        // … and since the run began
	requests int64
	lat      []int64 // ns per round trip
	one      [1]cluster.Estimate

	// Tracing: root spans of sampled nodes' requests, recorded after
	// traceFrom; ackedAtMid is the acked count when traceFrom passed.
	spans      []span
	ackedAtMid int64
	midSeen    bool
}

// ingest is the agent side of an ingest run: the generated traffic, how
// it is shipped, and what came back.
type ingest struct {
	in    *inputs
	batch int // Agent.Record MaxSamples; below 2 every sample is one Send

	drivers []*driver
	// prefixTicks is the fixed prefix of every node's ticks that the
	// figures which must not depend on how far a timed window got are
	// taken over. acc scores estimates per node over it, so accuracy is a
	// function of seed and code alone. Allocation is read when the last
	// driver completes it: a faster run ingests more records, takes more
	// of the store's full-state snapshots, and so allocates more per
	// sample — over the prefix every run takes the same snapshots.
	prefixTicks int
	acc         []accuracy
	prefixDone  atomic.Int32
	prefixAlloc uint64 // allocBytes() when the last driver completed the prefix
	prefixAcked int64  // samples acknowledged in the window by then

	// oracle[n] collects node n's returned estimates when n is one of the
	// seed-chosen oracle nodes (nil otherwise). Only n's driver appends.
	oracle [][]estBits

	traceFrom time.Time // zero: tracing off
}

// newIngest dials one agent per node and splits the nodes over the
// drivers in contiguous blocks.
func newIngest(in *inputs, addr string, batch, prefixTicks int, oracleNodes []int) (*ingest, error) {
	g := &ingest{
		in: in, batch: batch, prefixTicks: prefixTicks,
		acc:    make([]accuracy, len(in.nodes)),
		oracle: make([][]estBits, len(in.nodes)),
	}
	for _, n := range oracleNodes {
		g.oracle[n] = []estBits{}
	}
	nd := driverCount()
	if nd > len(in.nodes) {
		nd = len(in.nodes)
	}
	for i := 0; i < nd; i++ {
		d := &driver{g: g}
		g.drivers = append(g.drivers, d)
		lo, hi := i*len(in.nodes)/nd, (i+1)*len(in.nodes)/nd
		for n := lo; n < hi; n++ {
			ag, err := cluster.Dial(addr, in.nodes[n].id)
			if err != nil {
				g.close()
				return nil, err
			}
			if batch > 1 {
				ag.SetBatching(cluster.BatchOptions{MaxSamples: batch})
			}
			d.nodes = append(d.nodes, n)
			d.agents = append(d.agents, ag)
		}
		d.sawIM = make([]bool, len(d.nodes))
		d.sent = make([]int, len(d.nodes))
	}
	return g, nil
}

func (g *ingest) close() {
	for _, d := range g.drivers {
		for _, ag := range d.agents {
			_ = ag.Close()
		}
	}
}

// run drives every driver until stop reports true for it (checked before
// each tick), then flushes pending batches — the final partial batch is
// part of the run. It returns when every driver has finished.
func (g *ingest) run(stop func(d *driver) bool) {
	var wg sync.WaitGroup
	for _, d := range g.drivers {
		wg.Add(1)
		go func(d *driver) {
			defer wg.Done()
			for !stop(d) {
				d.markMid()
				for k := range d.nodes {
					d.send(k, d.tick)
				}
				d.tick++
				if d.tick == g.prefixTicks {
					g.markPrefix()
				}
			}
			for k := range d.nodes {
				d.flush(k)
			}
		}(d)
	}
	wg.Wait()
}

// markPrefix is called by each driver as it completes the prefix; the
// last one reads the allocation meter.
func (g *ingest) markPrefix() {
	if int(g.prefixDone.Add(1)) < len(g.drivers) {
		return
	}
	g.prefixAlloc = allocBytes()
	for _, d := range g.drivers {
		g.prefixAcked += d.acked.Load()
	}
}

// allocBytes is the process's cumulative heap allocation. Unlike
// runtime.ReadMemStats it does not stop the world, so a driver can read
// it inside the window.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (d *driver) markMid() {
	if !d.midSeen && !d.g.traceFrom.IsZero() && !time.Now().Before(d.g.traceFrom) {
		d.midSeen, d.ackedAtMid = true, d.acked.Load()
	}
}

// send ships one second of node k's telemetry and settles whatever came
// back; a sample that was only queued comes back with a later one.
func (d *driver) send(k, tick int) {
	s := d.g.in.nodes[d.nodes[k]].at(tick)
	d.ops.attempted++
	d.sent[k]++
	t0 := time.Now()
	var ests []cluster.Estimate
	var err error
	if d.g.batch > 1 {
		ests, err = d.agents[k].Record(float64(tick), s.pmc, s.measured)
	} else {
		d.one[0], err = d.agents[k].Send(float64(tick), s.pmc, s.measured)
		ests = d.one[:]
	}
	if err != nil || ests != nil {
		d.settle(k, tick, ests, err, t0)
	}
}

// flush sends node k's pending batch, if any.
func (d *driver) flush(k int) {
	t0 := time.Now()
	ests, err := d.agents[k].Flush()
	if err != nil || ests != nil {
		d.settle(k, d.tick-1, ests, err, t0)
	}
}

// settle accounts one completed round trip that ended at tick last: its
// latency, and every estimate checked against what was sent and scored
// against ground truth.
func (d *driver) settle(k, last int, ests []cluster.Estimate, err error, t0 time.Time) {
	el := time.Since(t0)
	d.requests++
	d.lat = append(d.lat, int64(el))
	g := d.g
	n := d.nodes[k]
	nt := &g.in.nodes[n]
	if err != nil {
		// The batch size is unknown once the reply is lost; charge the
		// frame the agent would have sent.
		lost := int64(1)
		if g.batch > 1 {
			lost = int64(g.batch)
		}
		d.ops.fail(lost, "%s tick %d: %v", nt.id, last, err)
		return
	}
	if g.oracle[n] != nil && d.midSeen {
		d.spans = append(d.spans, span{Name: "gen.request", Req: requestID(n, last), Start: t0.UnixNano(), End: t0.Add(el).UnixNano()})
	}
	first := last - len(ests) + 1
	for j := range ests {
		e := &ests[j]
		tick := first + j
		s := nt.at(tick)
		if s.measured != nil {
			d.sawIM[k] = true
		}
		if e.NodeID != nt.id || int(e.Time) != tick || e.FromMeasurement != (s.measured != nil) || e.Local ||
			math.IsNaN(e.PNode+e.PCPU+e.PMEM) || math.IsInf(e.PNode+e.PCPU+e.PMEM, 0) {
			d.ops.fail(1, "%s tick %d: wrong estimate %+v", nt.id, tick, *e)
			continue
		}
		d.acked.Add(1)
		d.ackedAll++
		if tick < g.prefixTicks {
			g.acc[n].add(s, e.PNode, e.PCPU, e.PMEM, d.sawIM[k])
		}
		if g.oracle[n] != nil {
			g.oracle[n] = append(g.oracle[n], estBits{math.Float64bits(e.PNode), math.Float64bits(e.PCPU), math.Float64bits(e.PMEM)})
		}
	}
}

// requestID names the live request that ended at (node, tick); replay
// spans of the same sample carry the same id.
func requestID(node, tick int) int64 { return int64(tick)*1_000_000 + int64(node) + 1 }

// totals sums the drivers' counters since the window began.
func (g *ingest) totals() (acked, requests int64, lat []int64) {
	for _, d := range g.drivers {
		acked += d.acked.Load()
		requests += d.requests
		lat = append(lat, d.lat...)
	}
	return acked, requests, lat
}

// accuracyTotal merges the per-node accumulators in node order, so the
// floating-point sums do not depend on how nodes were split over drivers.
func (g *ingest) accuracyTotal() accuracy {
	var a accuracy
	for i := range g.acc {
		a.merge(&g.acc[i])
	}
	return a
}
