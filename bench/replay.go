package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"highrpm/internal/cluster"
	"highrpm/internal/core"
	"highrpm/internal/obs"
	"highrpm/internal/pmu"
	"highrpm/internal/tsdb"
)

// replayBatch is the frame size of the batched replay paths, the same as
// the fleet workloads' agents use.
const replayBatch = 16

// replay drives the sampled nodes' telemetry through each layer's public
// API in isolation: one path at a time, one call in flight, private
// instances of everything. Every path sees every tick of every sampled
// node in order, so per-node state (monitors behind a service, Gorilla
// chains in a store) stays in step with the live run. What this measures
// is each layer's own cost; what it cannot measure — queueing and
// contention under the live load — is reported as gen.unattributed_pct.
type replay struct {
	model *core.HighRPM
	in    *inputs
	nodes []int // sampled node indices
	ticks int
	log   *spanLog
	ops   ops

	timerNs float64                  // cost of one start/stop pair, subtracted from medians
	ests    [][]core.MonitorEstimate // [sampled node][tick], filled by the core.push path
}

// pathStats is what one replay path cost.
type pathStats struct {
	ns     []float64 // per call, timer overhead removed
	calls  int
	wall   time.Duration
	cpuUs  float64 // process CPU per call, both sides of any socket included
	allocs float64 // heap objects per call, likewise
}

func (p *pathStats) p50() float64 { return median(p.ns) }

// perSample is the path's wall time per call, for paths whose calls are
// not alike (a batched Record either queues or flushes).
func (p *pathStats) perSample() float64 {
	if p.calls == 0 {
		return 0
	}
	return float64(p.wall) / float64(p.calls)
}

func newReplay(model *core.HighRPM, in *inputs, nodes []int, ticks int, log *spanLog) *replay {
	rp := &replay{model: model, in: in, nodes: nodes, ticks: ticks, log: log}
	pairs := make([]float64, 2001)
	for i := range pairs {
		t0 := time.Now()
		pairs[i] = float64(time.Since(t0))
	}
	rp.timerNs = median(pairs)
	return rp
}

// run replays every sampled (node, tick) through call, tick-major, under
// one gen.replay span. A call that returns errSkip does not apply to that
// sample and is neither timed nor counted.
func (rp *replay) run(name string, call func(i, tick int, s *second) error) pathStats {
	var st pathStats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	begin := time.Now()
	wrapper := rp.log.add(0, 0, "gen.replay", begin, begin)
	for tick := 0; tick < rp.ticks; tick++ {
		for i, n := range rp.nodes {
			s := rp.in.nodes[n].at(tick)
			rp.ops.attempted++
			t0 := time.Now()
			err := call(i, tick, s)
			t1 := time.Now()
			if errors.Is(err, errSkip) {
				rp.ops.attempted--
				continue
			}
			if err != nil {
				rp.ops.fail(1, "replay %s %s tick %d: %v", name, rp.in.nodes[n].id, tick, err)
				continue
			}
			st.calls++
			st.ns = append(st.ns, math.Max(0, float64(t1.Sub(t0))-rp.timerNs))
			st.wall += t1.Sub(t0)
			rp.log.add(wrapper, requestID(n, tick), name, t0, t1)
		}
	}
	end := time.Now()
	rp.log.spans[wrapper-1].End = end.UnixNano()
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	if st.calls > 0 {
		st.cpuUs = float64(cpu1-cpu0) / 1e3 / float64(st.calls)
		st.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(st.calls)
	}
	return st
}

// errSkip marks a (node, tick) a path does not apply to.
var errSkip = errors.New("skip")

// sameEstimate reports whether a wire estimate is bit-identical to the
// library's — the repo's single-service-equivalence guarantee.
func sameEstimate(e cluster.Estimate, want core.MonitorEstimate) error {
	if math.Float64bits(e.PNode) != math.Float64bits(want.PNode) ||
		math.Float64bits(e.PCPU) != math.Float64bits(want.PCPU) ||
		math.Float64bits(e.PMEM) != math.Float64bits(want.PMEM) {
		return fmt.Errorf("estimate %v/%v/%v differs from core.Monitor %v/%v/%v", e.PNode, e.PCPU, e.PMEM, want.PNode, want.PCPU, want.PMEM)
	}
	return nil
}

// corePaths replays the model layers: core.Monitor.Push, then the two
// networks it calls, each on the very inputs Push gave them.
func (rp *replay) corePaths(res *result) {
	mons := make([]*core.Monitor, len(rp.nodes))
	rp.ests = make([][]core.MonitorEstimate, len(rp.nodes))
	for i := range mons {
		mons[i] = core.NewMonitor(rp.model)
		rp.ests[i] = make([]core.MonitorEstimate, rp.ticks)
	}
	miss := rp.model.Opts.Dynamic.MissInterval
	// lstmTick reports whether Push takes the DynamicTRR path at this
	// tick; only steady-state windows (no front padding) are replayed.
	lstmTick := func(tick int, s *second) bool { return s.measured == nil && tick >= miss }

	var trr, im []float64
	var trrNs, allNs float64
	push := rp.run("core.push", func(i, tick int, s *second) error {
		t0 := time.Now()
		est, err := mons[i].Push(s.pmc, s.measured)
		d := float64(time.Since(t0))
		rp.ests[i][tick] = est
		allNs += d
		switch {
		case s.measured != nil:
			im = append(im, math.Max(0, d-rp.timerNs))
		case tick > 0:
			trr = append(trr, math.Max(0, d-rp.timerNs))
			trrNs += d
		}
		return err
	})
	res.setTimed("core.push_ns", push.p50(), push.calls)
	res.setTimed("core.push_trr_ns", median(trr), len(trr))
	res.setTimed("core.push_im_ns", median(im), len(im))
	res.set("core.push_allocs", push.allocs)
	if allNs > 0 {
		res.set("core.trr_share_pct", 100*trrNs/allNs)
	}

	window := make([][]float64, miss)
	for j := range window {
		window[j] = make([]float64, pmu.NumEvents+1)
	}
	lstm := rp.run("neural.lstm", func(i, tick int, s *second) error {
		if !lstmTick(tick, s) {
			return errSkip
		}
		// Row j of the window is step tick-miss+1+j: its PMCs plus the
		// trend value the monitor reported for the step before.
		nt := &rp.in.nodes[rp.nodes[i]]
		for j := range window {
			step := tick - miss + 1 + j
			copy(window[j], nt.at(step).pmc)
			window[j][pmu.NumEvents] = rp.ests[i][step-1].PNodePrime
		}
		out := rp.model.Dynamic.Net.PredictSeq(window)
		if math.Float64bits(out[len(out)-1]) != math.Float64bits(rp.ests[i][tick].PNode) {
			return fmt.Errorf("PredictSeq %v differs from Monitor.Push %v", out[len(out)-1], rp.ests[i][tick].PNode)
		}
		return nil
	})
	res.setTimed("neural.lstm_predictseq_ns", lstm.p50(), lstm.calls)
	srr := rp.run("neural.srr", func(i, tick int, s *second) error {
		pcpu, pmem := rp.model.SRR.Predict(s.pmc, rp.ests[i][tick].PNode)
		if math.Float64bits(pcpu) != math.Float64bits(rp.ests[i][tick].PCPU) || math.Float64bits(pmem) != math.Float64bits(rp.ests[i][tick].PMEM) {
			return fmt.Errorf("SRR.Predict differs from Monitor.Push")
		}
		return nil
	})
	res.setTimed("neural.srr_predict_ns", srr.p50(), srr.calls)
	res.set("neural.lstm_macs_per_call", float64(lstmMACs(rp.model)))
}

// lstmMACs computes the multiply-accumulates of one PredictSeq call from
// the layer sizes: per step and layer 4·H·(in+H) for the gates, plus the
// H-wide output head per step. Computed, not measured.
func lstmMACs(m *core.HighRPM) int {
	o := m.Opts.Dynamic
	in, per := pmu.NumEvents+1, 0
	for l := 0; l < o.Layers; l++ {
		per += 4 * o.Hidden * (in + o.Hidden)
		in = o.Hidden
	}
	return o.MissInterval * (per + o.Hidden)
}

// storePaths replays the returned estimates into a private in-memory
// store and a private durable one; the difference is the WAL.
func (rp *replay) storePaths(res *result, dir string) error {
	sample := func(i, tick int) tsdb.Sample {
		e := rp.ests[i][tick]
		ipmi := math.NaN()
		if m := rp.in.nodes[rp.nodes[i]].at(tick).measured; m != nil {
			ipmi = *m
		}
		return tsdb.Sample{PNode: e.PNode, PCPU: e.PCPU, PMEM: e.PMEM, PNodePrime: e.PNodePrime, IPMI: ipmi}
	}
	mem := tsdb.New(tsdb.DefaultOptions())
	st := rp.run("tsdb.ingest", func(i, tick int, _ *second) error {
		return mem.Ingest(rp.in.nodes[rp.nodes[i]].id, float64(tick), sample(i, tick))
	})
	res.setTimed("tsdb.ingest_ns", st.p50(), st.calls)
	if err := mem.Close(); err != nil {
		return err
	}
	dur, _, err := tsdb.Open(durableOptions(filepath.Join(dir, "replay-wal")))
	if err != nil {
		return err
	}
	st = rp.run("tsdb.ingest_wal", func(i, tick int, _ *second) error {
		return dur.Ingest(rp.in.nodes[rp.nodes[i]].id, float64(tick), sample(i, tick))
	})
	res.setTimed("tsdb.ingest_wal_ns", st.p50(), st.calls)
	return dur.Close()
}

// agentPath replays through one agent per sampled node dialled to addr.
// suffix keeps the node IDs (and so the service-side monitors) of
// different paths on one service apart. batch > 1 ships Record frames.
func (rp *replay) agentPath(name, addr, suffix, codec string, batch int) (pathStats, error) {
	agents := make([]*cluster.Agent, len(rp.nodes))
	defer func() {
		for _, ag := range agents {
			if ag != nil {
				_ = ag.Close()
			}
		}
	}()
	for i, n := range rp.nodes {
		ag, err := cluster.DialCodec(addr, rp.in.nodes[n].id+suffix, codec, 0)
		if err != nil {
			return pathStats{}, err
		}
		if batch > 1 {
			ag.SetBatching(cluster.BatchOptions{MaxSamples: batch})
		}
		agents[i] = ag
	}
	st := rp.run(name, func(i, tick int, s *second) error {
		if batch > 1 {
			ests, err := agents[i].Record(float64(tick), s.pmc, s.measured)
			if err != nil {
				return err
			}
			for j := range ests {
				if err := sameEstimate(ests[j], rp.ests[i][tick-len(ests)+1+j]); err != nil {
					return err
				}
			}
			return nil
		}
		e, err := agents[i].Send(float64(tick), s.pmc, s.measured)
		if err != nil {
			return err
		}
		return sameEstimate(e, rp.ests[i][tick])
	})
	return st, nil
}

// clusterPaths replays through a private in-memory cluster.Service: the
// binary codec, the JSON codec, and 16-sample Record frames; on the
// direct workload also through a second service with obs metrics and the
// self-meter registered, which is off as shipped.
func (rp *replay) clusterPaths(res *result, withObs bool) (send pathStats, err error) {
	svc := cluster.NewService(rp.model)
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		return send, err
	}
	defer svc.Close()
	if send, err = rp.agentPath("cluster.send", svc.Addr(), "", cluster.CodecBinary, 0); err != nil {
		return send, err
	}
	res.setTimed("cluster.send_ns", send.p50(), send.calls)
	res.set("cluster.send_self_ns", send.p50()-res.Metrics["core.push_ns"]-res.Metrics["tsdb.ingest_ns"])
	res.set("cluster.send_allocs", send.allocs)
	js, err := rp.agentPath("cluster.send_json", svc.Addr(), "-json", cluster.CodecJSON, 0)
	if err != nil {
		return send, err
	}
	res.setTimed("cluster.send_json_ns", js.p50(), js.calls)
	rec, err := rp.agentPath("cluster.record", svc.Addr(), "-rec", cluster.CodecBinary, replayBatch)
	if err != nil {
		return send, err
	}
	res.setTimed("cluster.record_ns_per_sample", rec.perSample(), rec.calls)
	if !withObs {
		return send, nil
	}

	metered := cluster.NewService(rp.model)
	reg := obs.NewRegistry()
	metered.RegisterMetrics(reg)
	if err := metered.Listen("127.0.0.1:0"); err != nil {
		return send, err
	}
	defer metered.Close()
	on, err := rp.agentPath("obs.send", metered.Addr(), "", cluster.CodecBinary, 0)
	if err != nil {
		return send, err
	}
	res.setTimed("obs.enabled_cpu_delta_us_per_sample", on.cpuUs-send.cpuUs, on.calls)
	// The self-meter's own view of a tick, read back through the registry.
	ticks := reg.Counter("highrpm_overhead_ticks_total", "").Value()
	wall := reg.Counter("highrpm_overhead_wall_seconds_total", "").Value()
	if ticks > 0 {
		res.setTimed("obs.selfmeter_tick_mean_us", 1e6*wall/ticks, int(ticks))
	}
	var scrapes []float64
	var buf bytes.Buffer
	for i := 0; i < 21; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := reg.WritePrometheus(&buf); err != nil {
			return send, err
		}
		scrapes = append(scrapes, float64(time.Since(t0))/1e6)
	}
	res.setTimed("obs.scrape_ms", median(scrapes), len(scrapes))
	res.set("obs.scrape_bytes", float64(buf.Len()))
	return send, nil
}

// fleetPaths replays through private routers: one shard with R=1 prices
// the router hop, two shards with R=2 the replication on top of it, and
// 16-sample frames at R=2 are the fleet workloads' own request shape.
func (rp *replay) fleetPaths(res *result, send pathStats) (record pathStats, err error) {
	one, err := startFleet(rp.model, "", 1, 1)
	if err != nil {
		return record, err
	}
	r1, err := rp.agentPath("fleet.send_r1", one.addr, "", cluster.CodecBinary, 0)
	if serr := one.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return record, err
	}
	two, err := startFleet(rp.model, "", 2, 2)
	if err != nil {
		return record, err
	}
	defer two.stop()
	r2, err := rp.agentPath("fleet.send_r2", two.addr, "", cluster.CodecBinary, 0)
	if err != nil {
		return record, err
	}
	res.setTimed("fleet.hop_self_ns", r1.p50()-send.p50(), r1.calls)
	res.setTimed("fleet.replicate_extra_ns", r2.p50()-r1.p50(), r2.calls)
	record, err = rp.agentPath("fleet.record_r2", two.addr, "-rec", cluster.CodecBinary, replayBatch)
	if err != nil {
		return record, err
	}
	res.setTimed("fleet.record_ns_per_sample", record.perSample(), record.calls)
	return record, nil
}

// ingestLayers runs the replay paths of an ingest workload and returns
// the isolated per-sample cost of the workload's own request shape, for
// gen.unattributed_pct.
func (rp *replay) ingestLayers(res *result, dir string, viaFleet bool) (isolatedNs float64, err error) {
	rp.corePaths(res)
	if err := rp.storePaths(res, dir); err != nil {
		return 0, err
	}
	send, err := rp.clusterPaths(res, !viaFleet)
	if err != nil {
		return 0, err
	}
	if !viaFleet {
		return send.p50(), nil
	}
	record, err := rp.fleetPaths(res, send)
	if err != nil {
		return 0, err
	}
	wal := res.Metrics["tsdb.ingest_wal_ns"] - res.Metrics["tsdb.ingest_ns"]
	return record.perSample() + wal, nil
}
