package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"highrpm/internal/cluster"
	"highrpm/internal/tsdb"
)

// Every queryColdEvery-th iteration of the mix adds a q_cold, every
// queryAggEvery-th a q_agg; every iteration issues a q_node.
const (
	queryColdEvery = 4
	queryAggEvery  = 10
	hotWindow      = 600 // seconds of history a q_node reads
)

// reader is the closed-loop query client of query_mixed: one agent on the
// router, one query in flight.
type reader struct {
	r        *run
	ag       *cluster.Agent
	hot      []int
	channels []string
	preload  int // seconds of history per node

	iter, cold int
	lat        map[string][]int64
	all        []int64
	ops        ops
	aggRef     []tsdb.SeriesPoint // the first q_agg answer; the range it covers never changes
}

func (r *run) newReader() (*reader, error) {
	ag, err := cluster.Dial(r.st.addr, "bench-reader")
	if err != nil {
		return nil, err
	}
	rd := &reader{r: r, ag: ag, preload: r.sz.preloadTicks, lat: map[string][]int64{}}
	rd.hot = rand.New(rand.NewSource(r.seed ^ 0x686f74)).Perm(len(r.in.nodes))[:min(r.sz.hotNodes, len(r.in.nodes))]
	for _, ch := range tsdb.Channels() {
		rd.channels = append(rd.channels, string(ch))
	}
	return rd, nil
}

// query issues one request, times it and checks the answer's point count.
func (rd *reader) query(kind string, req cluster.QueryRequest, want int) (tsdb.SeriesBody, bool) {
	rd.ops.attempted++
	t0 := time.Now()
	body, err := rd.ag.Query(req)
	el := int64(time.Since(t0))
	rd.lat[kind] = append(rd.lat[kind], el)
	rd.all = append(rd.all, el)
	if rd.r.trace {
		rd.r.log.add(0, int64(rd.iter), "gen."+kind, t0, t0.Add(time.Duration(el)))
	}
	if err != nil {
		rd.ops.fail(1, "%s %+v: %v", kind, req, err)
		return body, false
	}
	if want >= 0 && len(body.Points) != want {
		rd.ops.fail(1, "%s %+v: %d points, want %d", kind, req, len(body.Points), want)
		return body, false
	}
	return body, true
}

// aggRequest is the scatter-gather query: every node's 60 s rollup over
// the preloaded history, short of its last bucket, which stays open until
// the writer's samples seal it.
func (rd *reader) aggRequest() cluster.QueryRequest {
	return cluster.QueryRequest{Channel: string(tsdb.ChanPNode), From: 0, To: float64(rd.preload - 61), ResolutionS: 60}
}

// step runs one iteration of the mix.
func (rd *reader) step() {
	i := rd.iter
	rd.iter++
	nodes := rd.r.in.nodes
	span := min(hotWindow, rd.preload)
	rd.query("q_node", cluster.QueryRequest{
		NodeID: nodes[rd.hot[i%len(rd.hot)]].id, Channel: string(tsdb.ChanPNode),
		From: float64(rd.preload - span), To: float64(rd.preload - 1), ResolutionS: 1,
	}, span)
	if i%queryColdEvery == 0 {
		c := rd.cold
		rd.cold++
		rd.query("q_cold", cluster.QueryRequest{
			NodeID: nodes[c%len(nodes)].id, Channel: rd.channels[c/len(nodes)%len(rd.channels)],
			From: 0, To: float64(rd.preload - 1), ResolutionS: 1,
		}, rd.preload)
	}
	if i%queryAggEvery == 0 {
		body, ok := rd.query("q_agg", rd.aggRequest(), -1)
		switch {
		case !ok:
		case rd.aggRef == nil:
			rd.aggRef = body.Points
		case !samePoints(body.Points, rd.aggRef):
			rd.ops.fail(1, "q_agg iteration %d differs from the first answer", i)
		}
	}
}

func samePoints(a, b []tsdb.SeriesPoint) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

// checkAnswers verifies, after the window, what the router returned
// against the stores behind it: the aggregate must equal
// tsdb.MergeNodeSeries over the per-node answers in sorted node order,
// and a per-node answer must be byte-identical to the owning store's.
func (rd *reader) checkAnswers() {
	req := rd.aggRequest()
	ids := make([]string, len(rd.r.in.nodes))
	for i := range ids {
		ids[i] = rd.r.in.nodes[i].id
	}
	sort.Strings(ids)
	per := make([][]tsdb.Point, len(ids))
	for i, id := range ids {
		q := req
		q.NodeID = id
		rd.ops.attempted++
		body, err := rd.ag.Query(q)
		if err != nil {
			rd.ops.fail(1, "q_agg reference %s: %v", id, err)
			return
		}
		per[i] = body.StorePoints()
		if i%8 == 0 {
			rd.checkAgainstStore(q, body)
		}
	}
	rd.ops.attempted++
	if len(rd.aggRef) == 0 || !samePoints(rd.aggRef, tsdb.ToSeriesPoints(tsdb.MergeNodeSeries(per))) {
		rd.ops.fail(1, "q_agg (%d points) differs from MergeNodeSeries of the per-node answers", len(rd.aggRef))
	}
}

func (rd *reader) checkAgainstStore(q cluster.QueryRequest, got tsdb.SeriesBody) {
	rd.ops.attempted++
	for _, svc := range rd.r.st.services {
		want, err := svc.Store().QuerySeries(q.NodeID, q.Channel, q.From, q.To, q.ResolutionS)
		if err != nil {
			continue // this shard does not hold the node
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			rd.ops.fail(1, "query %+v through the router differs from the store's own answer", q)
		}
		return
	}
	rd.ops.fail(1, "query %+v: no shard holds the node", q)
}

// writer is the open-loop ingest beside the reader: one 16-sample Record
// frame every writerEvery on a fixed schedule, whatever the service does.
// A request is timed from when it was due, so a stall charges the
// requests queued behind it; lateness is how far behind schedule the
// generator itself ran.
type writer struct {
	g      *ingest
	owner  [][2]int // node → (driver, slot)
	every  time.Duration
	frames int
	rtt    []int64
	late   []int64
}

func newWriter(g *ingest, every time.Duration) *writer {
	w := &writer{g: g, every: every, owner: make([][2]int, len(g.in.nodes))}
	for di, d := range g.drivers {
		for k, n := range d.nodes {
			w.owner[n] = [2]int{di, k}
			d.agents[k].SetBatching(cluster.BatchOptions{MaxSamples: replayBatch})
		}
	}
	g.batch = replayBatch
	return w
}

// frame sends the next frame: the next 16 seconds of the next node.
func (w *writer) frame(due time.Time) {
	n := w.frames % len(w.owner)
	d, k := w.g.drivers[w.owner[n][0]], w.owner[n][1]
	if wait := time.Until(due); wait > 0 {
		time.Sleep(wait)
	}
	w.late = append(w.late, int64(time.Since(due)))
	for j := 0; j < replayBatch; j++ {
		d.send(k, d.sent[k])
	}
	w.rtt = append(w.rtt, int64(time.Since(due)))
	w.frames++
}

// queryWindow is query_mixed's measured window: the reader's mix, closed
// loop, beside the writer, open loop.
func (r *run) queryWindow() error {
	rd, err := r.newReader()
	if err != nil {
		return err
	}
	defer rd.ag.Close()
	for i := 0; i < r.sz.warmQueries; i++ {
		rd.step()
	}
	rd.lat, rd.all = map[string][]int64{}, make([]int64, 0, 1<<16)
	w := newWriter(r.g, r.sz.writerEvery)
	for _, d := range r.g.drivers {
		d.acked.Store(0)
		d.requests, d.lat = 0, nil
	}

	r.res.set("heap_inuse_mb", heapInuseMB()-r.heapBase)
	c0 := readCounters(r.st)
	u0 := readUsage()
	deadline := u0.at.Add(time.Duration(r.sz.seconds * float64(time.Second)))
	queries0 := rd.ops.attempted
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := 0; ; f++ {
			select {
			case <-stop:
				return
			default:
			}
			w.frame(u0.at.Add(time.Duration(f) * w.every))
		}
	}()
	for i := 0; ; i++ {
		if r.sz.ticks > 0 {
			if i >= r.sz.ticks {
				break
			}
		} else if !time.Now().Before(deadline) {
			break
		}
		rd.step()
	}
	close(stop)
	wg.Wait()
	u1 := readUsage()
	c1 := readCounters(r.st)

	queries := rd.ops.attempted - queries0
	if queries == 0 {
		return fmt.Errorf("no query completed")
	}
	wall := u1.at.Sub(u0.at).Seconds()
	sorted := sortedMicros(rd.all)
	r.res.setTimed("ops_per_s", float64(queries)/wall, int(queries))
	r.res.setTimed("gen.op_p50_us", percentile(sorted, 50), len(sorted))
	r.res.set("cpu_us_per_op", float64(u1.cpu-u0.cpu)/1e3/float64(queries))
	r.res.set("alloc_bytes_per_op", float64(u1.alloc-u0.alloc)/float64(queries))
	acc := r.g.accuracyTotal()
	r.res.setTimed("node_mape_pct", acc.nodeMAPE(), acc.nNode)
	r.res.setTimed("srr_mape_pct", acc.srrMAPE(), acc.nComponent)

	acked, requests, _ := r.g.totals()
	r.res.set("gen.requests", float64(queries+requests))
	r.res.set("gen.samples_acked", float64(acked))
	r.res.set("gen.samples_per_s", float64(acked)/wall)
	r.res.set("gen.drivers", 2)
	r.res.set("gen.queries_per_s", float64(queries)/wall)
	p, v := tailPercentile(sorted)
	r.res.set("gen.op_tail_pct", p)
	r.res.setTimed("gen.op_tail_us", v, len(sorted))
	for _, kind := range []string{"q_node", "q_agg", "q_cold"} {
		s := sortedMicros(rd.lat[kind])
		r.res.setTimed("gen."+kind+"_p50_us", percentile(s, 50), len(s))
	}
	late := sortedMicros(w.late)
	r.res.setTimed("gen.writer_rtt_p50_us", percentile(sortedMicros(w.rtt), 50), len(w.rtt))
	r.res.setTimed("gen.writer_late_p50_us", percentile(late, 50), len(late))
	r.res.set("gen.writer_late_max_us", percentile(late, 100))
	r.res.set("gen.heap_end_mb", heapInuseMB()-r.heapBase)
	layerCounts(r.res, c0, c1)

	rd.checkAnswers()
	if r.trace {
		if err := r.queryLayers(rd); err != nil {
			return err
		}
	}
	r.res.addOps(&rd.ops)
	return nil
}

// timeIt runs fn n times under one gen.replay span, one child span per
// call, and returns the median in microseconds.
func (r *run) timeIt(name string, n int, fn func(i int) error) (float64, error) {
	us := make([]float64, 0, n)
	begin := time.Now()
	wrapper := r.log.add(0, 0, "gen.replay", begin, begin)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		t1 := time.Now()
		r.log.add(wrapper, int64(i+1), name, t0, t1)
		us = append(us, float64(t1.Sub(t0))/1e3)
	}
	r.log.spans[wrapper-1].End = time.Now().UnixNano()
	r.res.setTimed(name, median(us), n)
	return median(us), nil
}

// queryLayers times the read path's layers in isolation, after the
// window, with the writer stopped: the store's own QuerySeries and
// Aggregate, the same read through one service's socket, and the same
// through the router.
func (r *run) queryLayers(rd *reader) error {
	const reps = 64
	svc := r.st.fullest()
	st := svc.Store()
	held := st.Nodes()
	span := min(hotWindow, rd.preload)
	from, to := float64(rd.preload-span), float64(rd.preload-1)
	if _, err := r.timeIt("tsdb.query_warm_us", reps, func(int) error {
		_, err := st.QuerySeries(held[0], string(tsdb.ChanPNode), from, to, 1)
		return err
	}); err != nil {
		return err
	}
	if _, err := r.timeIt("tsdb.query_cold_us", len(held)*len(rd.channels), func(i int) error {
		_, err := st.QuerySeries(held[i%len(held)], rd.channels[i/len(held)], 0, to, 1)
		return err
	}); err != nil {
		return err
	}
	agg := rd.aggRequest()
	aggUs, err := r.timeIt("tsdb.aggregate_us", reps, func(int) error {
		_, err := st.Aggregate(tsdb.ChanPNode, agg.From, agg.To, tsdb.Minute)
		return err
	})
	if err != nil {
		return err
	}

	direct, err := cluster.Dial(svc.Addr(), "bench-direct")
	if err != nil {
		return err
	}
	defer direct.Close()
	node := cluster.QueryRequest{NodeID: held[0], Channel: string(tsdb.ChanPNode), From: from, To: to, ResolutionS: 1}
	directUs, err := r.timeIt("cluster.query_us", reps, func(int) error { _, err := direct.Query(node); return err })
	if err != nil {
		return err
	}
	routedUs, err := r.timeIt("fleet.query_hop_self_us", reps, func(int) error { _, err := rd.ag.Query(node); return err })
	if err != nil {
		return err
	}
	r.res.set("fleet.query_hop_self_us", routedUs-directUs)
	scatterUs, err := r.timeIt("fleet.scatter_self_us", reps, func(int) error { _, err := rd.ag.Query(agg); return err })
	if err != nil {
		return err
	}
	r.res.set("fleet.scatter_self_us", scatterUs-aggUs)
	share, err := r.primaryShare()
	if err != nil {
		return err
	}
	r.res.set("fleet.primary_share_max", share)
	return nil
}
