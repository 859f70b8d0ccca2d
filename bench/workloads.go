package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"highrpm/internal/cluster"
	"highrpm/internal/core"
	"highrpm/internal/tsdb"
)

// spec is what distinguishes one workload from another.
type spec struct {
	name  string
	why   string
	fleet bool // router + three durable shards (R=2) instead of one in-memory service
	batch int  // Agent.Record MaxSamples; 0 ships every sample with Send
	dense bool // every sample carries an IM reading, so the LSTM path is never taken
	query bool // the measured window is the query mix beside an open-loop writer
	// recover adds the recovery phase after shutdown: every shard reopened
	// recoverCycles times. On the workload with the largest durable state.
	recover bool
}

var specs = []spec{
	{name: "direct_send_sparse",
		why: "64 agents to one in-memory service, one Send per second, IM every 10th: 90% of samples take the LSTM path, so an inference change must show here"},
	{name: "fleet_batch_sparse", fleet: true, batch: 16,
		why: "same traffic as 16-sample batches through router, R=2, three durable shards: every layer works and inference runs R times"},
	{name: "fleet_batch_dense", fleet: true, batch: 16, dense: true, recover: true,
		why: "every sample carries an IM reading, so the LSTM is bypassed: framing, JSON front hop, replication and WAL dominate; an LSTM change must show nothing; then recovery"},
	{name: "query_mixed", fleet: true, batch: 16, dense: true, query: true,
		why: "preloaded fleet, closed-loop q_node/q_cold/q_agg reader beside an open-loop writer: tsdb cache and fleet scatter dominate, working set larger than the block cache"},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sizes scales a run. defaultSizes is what BENCHMARK.json measures; the
// harness tests shrink it.
type sizes struct {
	nodes, traceLen int
	trainPerSuite   int
	// warmTicks is the fixed warm-up every node sends before the window:
	// first IM reading seen, pools dialled, lazy buffers built.
	warmTicks int
	// preloadTicks is the history per node query_mixed loads before its
	// window, in 64-sample frames. 64 nodes × 5 channels × 3328 points is
	// 1.06 M, just above the default block-cache budget of 1 M: cycling
	// over it is the LRU's worst case.
	preloadTicks int
	seconds      float64
	// ticks > 0 replaces the timed window with a fixed number of ticks per
	// node (or query iterations), so counts repeat exactly.
	ticks         int
	setupReps     int
	oracleNodes   int
	replayTicks   int // multiple of replayBatch
	recoverCycles int
	prefixTicks   int // see ingest.prefixTicks
	hotNodes      int
	writerEvery   time.Duration
	warmQueries   int
}

func defaultSizes(seconds float64) sizes {
	return sizes{
		nodes: 64, traceLen: traceLen, trainPerSuite: trainPerSuite,
		warmTicks: 32, preloadTicks: 3328,
		seconds: seconds, setupReps: 3,
		oracleNodes: 4, replayTicks: 512, recoverCycles: 5,
		prefixTicks: traceLen, hotNodes: 8,
		writerEvery: 10 * time.Millisecond, warmQueries: 40,
	}
}

const preloadBatch = 64

// cpuTime is the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// usage is a reading of the process-wide meters the window is charged by.
type usage struct {
	at    time.Time
	cpu   int64
	alloc uint64
}

func readUsage() usage {
	return usage{at: time.Now(), cpu: cpuTime(), alloc: allocBytes()}
}

// heapInuseMB forces a collection and reads what the heap still holds.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// counters is the layers' own accounting, read through their public
// Stats() at the window's edges.
type counters struct {
	svc         cluster.Stats // summed over the backends
	perSvc      []cluster.Stats
	routed      int64
	replicated  int64
	failedOver  int64
	routeErrors int64
	scatters    int64
}

func readCounters(st *stack) counters {
	var c counters
	for _, svc := range st.services {
		s := svc.Stats()
		c.perSvc = append(c.perSvc, s)
		c.svc.Samples += s.Samples
		c.svc.BinFrames += s.BinFrames
		c.svc.JSONFrames += s.JSONFrames
		c.svc.Batches += s.Batches
		c.svc.BatchSamples += s.BatchSamples
		c.svc.TimedOut += s.TimedOut
		c.svc.Rejected += s.Rejected
		c.svc.Store.Points += s.Store.Points
		c.svc.Store.Bytes += s.Store.Bytes
		c.svc.Store.RawBytes += s.Store.RawBytes
		c.svc.Store.Queries += s.Store.Queries
		c.svc.Store.PointsReturned += s.Store.PointsReturned
		c.svc.Store.CacheHits += s.Store.CacheHits
		c.svc.Store.CacheMisses += s.Store.CacheMisses
		c.svc.Store.WALBytes += s.Store.WALBytes
		c.svc.Store.WALFsyncs += s.Store.WALFsyncs
		c.svc.Store.WALRecords += s.Store.WALRecords
		c.svc.Store.Snapshots += s.Store.Snapshots
	}
	if st.router != nil {
		rs := st.router.Stats()
		c.routed, c.replicated, c.failedOver = rs.Routed, rs.Replicated, rs.FailedOver
		c.routeErrors, c.scatters = rs.RouteErrors, rs.ScatterGathers
	}
	return c
}

// layerCounts turns the window's counter deltas into the count-type
// per-layer metrics.
func layerCounts(res *result, a, b counters) {
	res.set("cluster.bin_frames", float64(b.svc.BinFrames-a.svc.BinFrames))
	res.set("cluster.json_frames", float64(b.svc.JSONFrames-a.svc.JSONFrames))
	if n := b.svc.Batches - a.svc.Batches; n > 0 {
		res.set("cluster.batch_mean_size", float64(b.svc.BatchSamples-a.svc.BatchSamples)/float64(n))
	}
	res.set("cluster.timed_out", float64(b.svc.TimedOut-a.svc.TimedOut))
	res.set("cluster.rejected", float64(b.svc.Rejected-a.svc.Rejected))
	res.set("fleet.routed", float64(b.routed-a.routed))
	res.set("fleet.replicated", float64(b.replicated-a.replicated))
	res.set("fleet.failed_over", float64(b.failedOver-a.failedOver))
	res.set("fleet.route_errors", float64(b.routeErrors-a.routeErrors))
	res.set("fleet.scatter_gathers", float64(b.scatters-a.scatters))
	if n := b.svc.Store.WALRecords - a.svc.Store.WALRecords; n > 0 {
		res.set("tsdb.wal_bytes_per_sample", float64(b.svc.Store.WALBytes-a.svc.Store.WALBytes)/float64(n))
	}
	res.set("tsdb.wal_fsyncs", float64(b.svc.Store.WALFsyncs-a.svc.Store.WALFsyncs))
	res.set("tsdb.snapshots", float64(b.svc.Store.Snapshots))
	if b.svc.Store.Points > 0 {
		res.set("tsdb.mem_bytes_per_point", float64(b.svc.Store.Bytes)/float64(b.svc.Store.Points))
		res.set("tsdb.compression_ratio", 16*float64(b.svc.Store.Points)/float64(b.svc.Store.RawBytes))
	}
	if n := b.svc.Store.Queries - a.svc.Store.Queries; n > 0 {
		res.set("tsdb.points_per_query", float64(b.svc.Store.PointsReturned-a.svc.Store.PointsReturned)/float64(n))
	}
	if n := (b.svc.Store.CacheHits - a.svc.Store.CacheHits) + (b.svc.Store.CacheMisses - a.svc.Store.CacheMisses); n > 0 {
		res.set("tsdb.cache_hit_ratio", float64(b.svc.Store.CacheHits-a.svc.Store.CacheHits)/float64(n))
	}
	if len(b.perSvc) > 1 {
		var sum, maxS float64
		for i := range b.perSvc {
			s := float64(b.perSvc[i].Samples - a.perSvc[i].Samples)
			sum += s
			maxS = math.Max(maxS, s)
		}
		if sum > 0 {
			res.set("fleet.shard_samples_max_over_mean", maxS/(sum/float64(len(b.perSvc))))
		}
	}
}

// pickNodes draws n distinct node indices from the seed, ascending.
func pickNodes(seed int64, nodes, n int) []int {
	picked := rand.New(rand.NewSource(seed ^ 0x6f7261636c65)).Perm(nodes)[:min(n, nodes)]
	sort.Ints(picked)
	return picked
}

// run is one workload run in progress.
type run struct {
	sp    spec
	sz    sizes
	seed  int64
	trace bool
	res   *result
	log   *spanLog

	base   string // scratch directory for durable state
	model  *core.HighRPM
	in     *inputs
	st     *stack
	g      *ingest
	oracle []int
	// heapBase is the heap holding only the harness's own inputs and the
	// model, read before the stack starts; heap_inuse_mb is what set-up
	// added on top of it.
	heapBase float64
}

// runWorkload measures one workload: set-up (repeated, median reported),
// the window, then — outside the window and its CPU accounting — the
// correctness oracle, the traced layer replay, shutdown and recovery.
func runWorkload(sp spec, seed int64, sz sizes, trace bool, outDir string) (*result, error) {
	base, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer removeAll(base)
	r := &run{sp: sp, sz: sz, seed: seed, trace: trace, base: base,
		res: newResult(sp.name, seed, trace), log: &spanLog{}}
	defer r.close()
	if err := r.setUp(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if sp.query {
		err = r.queryWindow()
	} else {
		err = r.ingestWindow()
	}
	if err != nil {
		return nil, fmt.Errorf("window: %w", err)
	}
	r.checkOracle()
	if trace {
		if err := r.layers(); err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
	}
	if err := r.shutdownAndRecover(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if trace && outDir != "" {
		if err := writeSpans(outDir, sp.name, r.log.spans); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

func (r *run) close() {
	if r.g != nil {
		r.g.close()
	}
	if r.st != nil {
		_ = r.st.stop()
	}
}

func (r *run) start(dir string) (*stack, error) {
	if r.sp.fleet {
		return startFleet(r.model, dir, fleetShards, fleetReplication)
	}
	return startDirect(r.model)
}

// setUp builds the system under test setupReps times — train the model,
// generate the traffic, start the services — keeps the last build, then
// dials the agents and sends the fixed warm-up (and, for query_mixed, the
// preload). setup_s is the median build plus that load.
func (r *run) setUp() error {
	var trainS, genS, listenS, buildS []float64
	for rep := 0; rep < r.sz.setupReps; rep++ {
		t0 := time.Now()
		model, modelHash, err := trainModel(r.sz.trainPerSuite)
		if err != nil {
			return err
		}
		t1 := time.Now()
		imEvery := model.Opts.Dynamic.MissInterval
		if r.sp.dense {
			imEvery = 1
		}
		in, err := generate(r.seed, r.sz.nodes, r.sz.traceLen, imEvery)
		if err != nil {
			return err
		}
		r.model, r.in = model, in
		if rep+1 == r.sz.setupReps {
			r.heapBase = heapInuseMB()
		}
		t2 := time.Now()
		st, err := r.start(filepath.Join(r.base, fmt.Sprintf("build-%d", rep)))
		if err != nil {
			return err
		}
		t3 := time.Now()
		trainS = append(trainS, t1.Sub(t0).Seconds())
		genS = append(genS, t2.Sub(t1).Seconds())
		listenS = append(listenS, t3.Sub(t2).Seconds())
		buildS = append(buildS, t3.Sub(t0).Seconds())
		r.res.Meta["input_sha256"], r.res.Meta["model_sha256"] = in.hash, modelHash
		if rep+1 < r.sz.setupReps {
			if err := st.stop(); err != nil {
				return err
			}
			runtime.GC()
			continue
		}
		r.st = st
	}

	t0 := time.Now()
	r.oracle = pickNodes(r.seed, r.sz.nodes, r.sz.oracleNodes)
	batch, warm := r.sp.batch, r.sz.warmTicks
	if r.sp.query {
		batch, warm = preloadBatch, r.sz.preloadTicks
	}
	g, err := newIngest(r.in, r.st.addr, batch, r.sz.prefixTicks, r.oracle)
	if err != nil {
		return err
	}
	r.g = g
	g.run(func(d *driver) bool { return d.tick >= warm })
	load := time.Since(t0).Seconds()

	r.res.set("setup.train_s", median(trainS))
	r.res.set("setup.trace_gen_s", median(genS))
	r.res.set("setup.listen_s", median(listenS))
	if r.sp.query {
		r.res.set("setup.preload_s", load)
	}
	r.res.setTimed("setup_s", median(buildS)+load, len(buildS))
	return nil
}

// ingestWindow is the measured window of the three ingest workloads:
// every driver walks its nodes in time-major order — tick t for all of
// them, then t+1, the cluster's lock-step 1 Sa/s tick compressed in time
// — with one request in flight. Closed loop: an agent needs its estimate
// back before its next second.
func (r *run) ingestWindow() error {
	g := r.g
	r.res.set("heap_inuse_mb", heapInuseMB()-r.heapBase)
	for _, d := range g.drivers {
		d.acked.Store(0)
		d.requests = 0
		d.lat = make([]int64, 0, 1<<20)
	}
	c0 := readCounters(r.st)
	u0 := readUsage()
	deadline := u0.at.Add(time.Duration(r.sz.seconds * float64(time.Second)))
	if r.trace {
		g.traceFrom = u0.at.Add(time.Duration(r.sz.seconds / 2 * float64(time.Second)))
	}
	endTick := g.drivers[0].tick + r.sz.ticks
	g.run(func(d *driver) bool {
		if r.sz.ticks > 0 {
			return d.tick >= endTick
		}
		return !time.Now().Before(deadline)
	})
	u1 := readUsage()
	c1 := readCounters(r.st)

	acked, requests, lat := g.totals()
	if acked == 0 {
		return fmt.Errorf("no sample was acknowledged")
	}
	wall := u1.at.Sub(u0.at).Seconds()
	sorted := sortedMicros(lat)
	r.res.setTimed("ops_per_s", float64(acked)/wall, int(acked))
	r.res.setTimed("gen.op_p50_us", percentile(sorted, 50), len(sorted))
	r.res.set("cpu_us_per_op", float64(u1.cpu-u0.cpu)/1e3/float64(acked))
	if g.prefixAcked > 0 {
		r.res.setTimed("alloc_bytes_per_op", float64(g.prefixAlloc-u0.alloc)/float64(g.prefixAcked), int(g.prefixAcked))
	} else { // the window ended inside the prefix
		r.res.setTimed("alloc_bytes_per_op", float64(u1.alloc-u0.alloc)/float64(acked), int(acked))
	}
	acc := g.accuracyTotal()
	r.res.setTimed("node_mape_pct", acc.nodeMAPE(), acc.nNode)
	r.res.setTimed("srr_mape_pct", acc.srrMAPE(), acc.nComponent)
	r.res.setTimed("gen.trr_mape_pct", acc.trrMAPE(), acc.nTRR)

	r.res.set("gen.requests", float64(requests))
	r.res.set("gen.samples_acked", float64(acked))
	r.res.set("gen.samples_per_s", float64(acked)/wall)
	r.res.set("gen.drivers", float64(len(g.drivers)))
	p, v := tailPercentile(sorted)
	r.res.set("gen.op_tail_pct", p)
	r.res.setTimed("gen.op_tail_us", v, len(sorted))
	r.res.set("gen.heap_end_mb", heapInuseMB()-r.heapBase)
	layerCounts(r.res, c0, c1)
	if r.trace {
		var first, second int64
		for _, d := range g.drivers {
			first += d.ackedAtMid
			second += d.acked.Load() - d.ackedAtMid
			for _, s := range d.spans {
				r.log.add(0, s.Req, s.Name, time.Unix(0, s.Start), time.Unix(0, s.End))
			}
		}
		if first > 0 {
			r.res.set("gen.trace_overhead_pct", 100*(1-float64(second)/float64(first)))
		}
	}
	return nil
}

// checkOracle replays each oracle node's trace through a fresh
// core.Monitor and requires every estimate the stack returned for that
// node to be bit-identical — the repo's single-service-equivalence
// guarantee — and every sample sent to have been acknowledged.
func (r *run) checkOracle() {
	var o ops
	sent := map[int]int{}
	for _, d := range r.g.drivers {
		for k, n := range d.nodes {
			sent[n] = d.sent[k]
		}
	}
	for _, n := range r.oracle {
		got := r.g.oracle[n]
		mon := core.NewMonitor(r.model)
		nt := &r.in.nodes[n]
		o.attempted++
		if len(got) != sent[n] {
			o.fail(1, "oracle %s: sent %d samples, got %d estimates", nt.id, sent[n], len(got))
		}
		for tick, e := range got {
			s := nt.at(tick)
			o.attempted++
			want, err := mon.Push(s.pmc, s.measured)
			if err != nil {
				o.fail(1, "oracle %s tick %d: %v", nt.id, tick, err)
				continue
			}
			if e != (estBits{math.Float64bits(want.PNode), math.Float64bits(want.PCPU), math.Float64bits(want.PMEM)}) {
				o.fail(1, "oracle %s tick %d: returned estimate differs from core.Monitor", nt.id, tick)
			}
		}
	}
	for _, d := range r.g.drivers {
		o.attempted++
		if d.ops.failed == 0 && d.ackedAll != d.ops.attempted {
			o.fail(1, "sent %d samples, %d estimates came back", d.ops.attempted, d.ackedAll)
		}
		r.res.addOps(&d.ops)
	}
	r.res.addOps(&o)
}

// layers is the traced run's extra work, after the window: the isolated
// replay of the sampled nodes through every layer.
func (r *run) layers() error {
	if r.sp.query {
		return nil // the query window measures its layers itself
	}
	rp := newReplay(r.model, r.in, r.oracle, r.sz.replayTicks, r.log)
	isolated, err := rp.ingestLayers(r.res, r.base, r.sp.fleet)
	if err != nil {
		return err
	}
	r.res.addOps(&rp.ops)
	// Live cost per sample with G drivers in flight, against the same
	// request shape alone: what is left is queueing and contention.
	if live := r.res.Metrics["ops_per_s"]; live > 0 && isolated > 0 {
		liveNs := 1e9 / live * float64(len(r.g.drivers))
		r.res.set("gen.unattributed_pct", 100*(1-isolated/liveNs))
	}
	if r.sp.fleet {
		// Where a recovery phase follows, the snapshot is timed at its end:
		// taken here it would leave recovery no WAL to replay.
		if !r.sp.recover {
			if err := r.timeSnapshot(r.st.fullest()); err != nil {
				return err
			}
		}
		share, err := r.primaryShare()
		if err != nil {
			return err
		}
		r.res.set("fleet.primary_share_max", share)
	}
	return nil
}

// timeSnapshot times one manual full-state snapshot of svc's store.
func (r *run) timeSnapshot(svc *cluster.Service) error {
	t0 := time.Now()
	if err := svc.Store().Snapshot(); err != nil {
		return err
	}
	r.res.setTimed("tsdb.snapshot_ms", float64(time.Since(t0))/1e6, 1)
	return nil
}

// primaryShare finds, from outside, the largest share of nodes whose
// primary is one shard: a per-node query through the router is answered
// by the node's primary, whose store counts it.
func (r *run) primaryShare() (float64, error) {
	ag, err := cluster.Dial(r.st.addr, "bench-placement")
	if err != nil {
		return 0, err
	}
	defer ag.Close()
	primaries := make([]int, len(r.st.services))
	for i := range r.in.nodes {
		before := readCounters(r.st)
		if _, err := ag.Query(cluster.QueryRequest{NodeID: r.in.nodes[i].id, Channel: string(tsdb.ChanPNode), From: 0, To: 0}); err != nil {
			return 0, err
		}
		after := readCounters(r.st)
		for s := range primaries {
			if after.perSvc[s].Store.Queries > before.perSvc[s].Store.Queries {
				primaries[s]++
			}
		}
	}
	sort.Ints(primaries)
	return float64(primaries[len(primaries)-1]) / float64(len(r.in.nodes)), nil
}

// probeShard takes a fixed set of reads whose answers must survive a
// restart byte for byte: the store's content figures and eight query
// answers as JSON.
func (r *run) probeShard(svc *cluster.Service) ([]string, error) {
	s := svc.Store().Stats()
	p := []string{fmt.Sprintf("nodes=%d series=%d points=%d bytes=%d raw=%d", s.Nodes, s.Series, s.Points, s.Bytes, s.RawBytes)}
	ag, err := cluster.Dial(svc.Addr(), "bench-probe")
	if err != nil {
		return nil, err
	}
	defer ag.Close()
	for _, n := range svc.Store().Nodes() {
		for _, res := range []int{1, 60} {
			body, err := ag.Query(cluster.QueryRequest{NodeID: n, Channel: string(tsdb.ChanPCPU), From: 0, To: 1e9, ResolutionS: res})
			if err != nil {
				return nil, err
			}
			data, err := json.Marshal(body)
			if err != nil {
				return nil, err
			}
			p = append(p, string(data))
		}
		if len(p) > 8 {
			break
		}
	}
	return p, nil
}

// shutdownAndRecover stops the stack gracefully, weighs what it left on
// disk, and — where the workload asks for it — reopens every shard
// recoverCycles times: NewDurableService, Listen, first query answered.
// Each cycle's answers must equal the ones taken before shutdown.
func (r *run) shutdownAndRecover() error {
	var before [][]string
	if r.sp.recover {
		for _, svc := range r.st.services {
			p, err := r.probeShard(svc)
			if err != nil {
				return err
			}
			before = append(before, p)
		}
	}
	r.g.close()
	st := r.st
	dirs := st.dirs
	var stored int64
	fullest := 0 // index of the shard holding the most nodes
	for i, svc := range st.services {
		stored += svc.Stats().Store.Ingested
		if svc == st.fullest() {
			fullest = i
		}
	}
	if err := st.stop(); err != nil {
		return err
	}
	if !r.sp.fleet {
		return nil
	}
	disk, err := st.diskBytes()
	if err != nil {
		return err
	}
	if stored > 0 {
		// Replicas included: bytes on disk per sample the agents sent.
		r.res.set("gen.disk_bytes_per_sample", float64(disk)*fleetReplication/float64(stored))
	}
	if !r.sp.recover {
		return nil
	}
	var o ops
	var slowest, opens, replayed []float64
	for c := 0; c < r.sz.recoverCycles; c++ {
		var worst float64
		for i, dir := range dirs {
			t0 := time.Now()
			svc, rec, err := openShard(r.model, dir)
			if err != nil {
				return err
			}
			opened := time.Since(t0)
			ag, err := cluster.Dial(svc.Addr(), "bench-recover")
			if err == nil {
				// With sequential node names the ring can leave a shard
				// without a single node; its first answer is then Stats.
				if held := svc.Store().Nodes(); len(held) > 0 {
					_, err = ag.Query(cluster.QueryRequest{NodeID: held[0], Channel: string(tsdb.ChanPNode), From: 0, To: 1e9, ResolutionS: 60})
				} else {
					_, err = ag.Stats()
				}
				_ = ag.Close()
			}
			ms := float64(time.Since(t0)) / 1e6
			o.attempted++
			if err != nil {
				o.fail(1, "recover shard %d: %v", i, err)
			} else if p, perr := r.probeShard(svc); perr != nil || !slices.Equal(p, before[i]) {
				o.fail(1, "recover shard %d cycle %d: answers differ from before shutdown (%v)", i, c, perr)
			}
			worst = math.Max(worst, ms)
			opens = append(opens, float64(opened)/1e6)
			replayed = append(replayed, float64(rec.Replayed))
			if r.trace && c+1 == r.sz.recoverCycles && i == fullest {
				if err := r.timeSnapshot(svc); err != nil {
					return err
				}
			}
			if err := shutdown(svc); err != nil {
				return err
			}
		}
		slowest = append(slowest, worst)
	}
	r.res.setTimed("gen.recover_ms", median(slowest), len(slowest))
	r.res.setTimed("tsdb.open_ms", median(opens), len(opens))
	r.res.set("tsdb.replayed_records", median(replayed))
	r.res.addOps(&o)
	return nil
}
