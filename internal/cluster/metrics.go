package cluster

import (
	"sort"
	"sync"

	"highrpm/internal/obs"
)

// This file wires the cluster layer into the obs subsystem: service and
// store counters, the per-node highrpm_node_power_watts gauges fed from
// the latest TRR/SRR estimates, the overhead self-meter on the estimation
// tick, and the ResilientAgent mode/counter gauges.

// powerComponents maps the LatestEstimate fields onto the component label
// of highrpm_node_power_watts, in exposition order.
var powerComponents = []string{"cpu", "ipmi", "mem", "node", "node_prime"}

// RegisterMetrics exports the service onto reg: Stats counters, store
// stats, per-node power gauges, and the highrpm_overhead_* self-metering
// of the estimation tick. Gauges are refreshed from one Stats snapshot
// per scrape via the registry's gather hook. Call once, before or after
// Listen; the meter attaches atomically.
func (s *Service) RegisterMetrics(reg *obs.Registry) {
	s.meter.Store(obs.NewSelfMeter(reg))

	nodes := reg.Gauge("highrpm_service_nodes", "Nodes with a live monitor on the service.")
	samples := reg.Counter("highrpm_service_samples_total", "Telemetry samples received.")
	estimates := reg.Counter("highrpm_service_estimates_total", "Estimates computed and answered.")
	measured := reg.Counter("highrpm_service_measured_total", "Samples that carried an IM (IPMI) reading.")
	relayed := reg.Counter("highrpm_service_relayed_samples_total", "Samples recorded from a relayed estimate instead of an inference of the service's own.")
	conns := reg.Gauge("highrpm_service_connections", "Live agent connections.")
	peak := reg.Gauge("highrpm_service_connections_peak", "Highwater mark of live connections.")
	rejected := reg.Counter("highrpm_service_rejected_total", "Connections dropped at accept by the MaxConns cap.")
	timedOut := reg.Counter("highrpm_service_timed_out_total", "Connections reaped by the read deadline.")

	binConns := reg.Counter("highrpm_service_binary_connections_total", "Connections that negotiated the binary codec.")
	frames := reg.CounterVec("highrpm_service_frames_total", "Requests handled, by wire codec.", "codec")
	batches := reg.Counter("highrpm_service_batches_total", "Record batches handled.")
	batchSamples := reg.Counter("highrpm_service_batch_samples_total", "Samples delivered inside record batches.")
	batchHist := reg.Histogram("highrpm_service_batch_size",
		"Samples per record batch (the coalescing factor agents achieve).",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	s.batchHist.Store(&batchHist)

	storeNodes := reg.Gauge("highrpm_store_nodes", "Nodes with recorded history.")
	storeSeries := reg.Gauge("highrpm_store_series", "Raw series retained (channels x nodes).")
	storePoints := reg.Gauge("highrpm_store_points", "Raw points currently retained.")
	storeBytes := reg.Gauge("highrpm_store_bytes", "Compressed footprint including rollups.")
	storeRatio := reg.Gauge("highrpm_store_compression_ratio", "16 B baseline over compressed bytes per raw point.")
	storeIngested := reg.Counter("highrpm_store_ingested_samples_total", "Samples ingested into the history store.")
	storeQueries := reg.Counter("highrpm_store_queries_total", "Per-series reads served by the store.")
	storePointsOut := reg.Counter("highrpm_store_points_returned_total", "Points returned by store reads.")
	storeEvicted := reg.Counter("highrpm_store_evicted_points_total", "Raw and rollup points dropped by retention.")
	cacheHits := reg.Counter("highrpm_store_cache_hits_total", "Decoded-block cache hits (a block read through its existing entry).")
	cacheMisses := reg.Counter("highrpm_store_cache_misses_total", "Decoded-block cache misses (a block read that created its entry).")
	cachePoints := reg.Gauge("highrpm_store_cache_points", "Decoded points currently held by the block cache.")

	walBytes := reg.Counter("highrpm_store_wal_bytes_total", "Bytes appended to the write-ahead log since open (0 on in-memory stores).")
	walFsyncs := reg.Counter("highrpm_store_wal_fsyncs_total", "fsync calls issued by the write-ahead log.")
	walRecords := reg.Counter("highrpm_store_wal_records_total", "Records appended to the write-ahead log since open.")
	walReplayed := reg.Gauge("highrpm_store_wal_replayed_records", "WAL records replayed into the store at startup recovery.")
	snapshots := reg.Counter("highrpm_store_snapshots_total", "Snapshots written since open.")
	snapshotAge := reg.Gauge("highrpm_store_snapshot_age_seconds", "Seconds since the newest snapshot was written (-1 when none exists).")

	power := reg.GaugeVec("highrpm_node_power_watts",
		"Latest restored power per node: component=node is the TRR estimate, cpu/mem the SRR split, node_prime the trend feature, ipmi the last IM reading (NaN between readings).",
		"node", "component")
	measuredFlag := reg.GaugeVec("highrpm_node_from_measurement",
		"1 when the node's latest estimate is an IM reading, 0 when it is a model prediction.", "node")

	reg.OnGather(func() {
		st := s.Stats()
		nodes.Set(float64(st.Nodes))
		samples.Set(float64(st.Samples))
		estimates.Set(float64(st.Estimates))
		measured.Set(float64(st.Measured))
		relayed.Set(float64(st.Relayed))
		conns.Set(float64(st.Conns))
		peak.Set(float64(st.PeakConns))
		rejected.Set(float64(st.Rejected))
		timedOut.Set(float64(st.TimedOut))

		binConns.Set(float64(st.BinConns))
		frames.With("binary").Set(float64(st.BinFrames))
		frames.With("json").Set(float64(st.JSONFrames))
		batches.Set(float64(st.Batches))
		batchSamples.Set(float64(st.BatchSamples))

		storeNodes.Set(float64(st.Store.Nodes))
		storeSeries.Set(float64(st.Store.Series))
		storePoints.Set(float64(st.Store.Points))
		storeBytes.Set(float64(st.Store.Bytes))
		storeRatio.Set(st.Store.CompressionRatio)
		storeIngested.Set(float64(st.Store.Ingested))
		storeQueries.Set(float64(st.Store.Queries))
		storePointsOut.Set(float64(st.Store.PointsReturned))
		storeEvicted.Set(float64(st.Store.EvictedPoints))
		cacheHits.Set(float64(st.Store.CacheHits))
		cacheMisses.Set(float64(st.Store.CacheMisses))
		cachePoints.Set(float64(st.Store.CachePoints))

		walBytes.Set(float64(st.Store.WALBytes))
		walFsyncs.Set(float64(st.Store.WALFsyncs))
		walRecords.Set(float64(st.Store.WALRecords))
		walReplayed.Set(float64(st.Store.ReplayedRecords))
		snapshots.Set(float64(st.Store.Snapshots))
		snapshotAge.Set(st.Store.SnapshotAgeSeconds)

		latest := s.LatestEstimates()
		ids := make([]string, 0, len(latest))
		for id := range latest {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			est := latest[id]
			vals := map[string]float64{
				"cpu": est.PCPU, "ipmi": est.IPMI, "mem": est.PMEM,
				"node": est.PNode, "node_prime": est.PNodePrime,
			}
			for _, comp := range powerComponents {
				power.With(id, comp).Set(vals[comp])
			}
			flag := 0.0
			if est.FromMeasurement {
				flag = 1
			}
			measuredFlag.With(id).Set(flag)
		}
	})
}

// Health reports the service's readiness for the obs /readyz probe:
// ready while the listener is up and the service has not been closed.
func (s *Service) Health() obs.Health {
	if !s.srv.Listening() {
		return obs.Health{Ready: false, Detail: "service not listening"}
	}
	return obs.Health{Ready: true}
}

// AgentMetrics exports ResilientAgent activity as per-node gauges.
// ResilientAgent is single-goroutine by contract, so it cannot publish
// its own counters safely; instead each node loop calls Observe after a
// Send and the snapshot lands in gauges (atomic cells) that any scrape
// can read. Degraded state is additionally tracked for the ready-but-
// degraded /readyz posture.
type AgentMetrics struct {
	mode        obs.GaugeVec
	sent        obs.GaugeVec
	localServed obs.GaugeVec
	buffered    obs.GaugeVec
	replayed    obs.GaugeVec
	dropped     obs.GaugeVec
	reconnects  obs.GaugeVec
	sendFails   obs.GaugeVec
	degrads     obs.GaugeVec
	pending     obs.GaugeVec

	mu       sync.Mutex
	degraded map[string]bool
}

// NewAgentMetrics registers the highrpm_agent_* gauges on reg.
func NewAgentMetrics(reg *obs.Registry) *AgentMetrics {
	return &AgentMetrics{
		mode: reg.GaugeVec("highrpm_agent_mode",
			"Agent serving mode: 0 connected, 1 degraded (local estimates, samples buffered).", "node"),
		sent:        reg.GaugeVec("highrpm_agent_sent_total", "Samples acknowledged by the service live.", "node"),
		localServed: reg.GaugeVec("highrpm_agent_local_served_total", "Estimates answered from the local model snapshot.", "node"),
		buffered:    reg.GaugeVec("highrpm_agent_buffered_total", "Samples queued for replay (cumulative).", "node"),
		replayed:    reg.GaugeVec("highrpm_agent_replayed_total", "Buffered samples later acknowledged by the service.", "node"),
		dropped:     reg.GaugeVec("highrpm_agent_dropped_total", "Buffered samples lost to the buffer cap.", "node"),
		reconnects:  reg.GaugeVec("highrpm_agent_reconnects_total", "Successful re-dials (Hello + model resync).", "node"),
		sendFails:   reg.GaugeVec("highrpm_agent_send_failures_total", "Network round trips that errored or timed out.", "node"),
		degrads:     reg.GaugeVec("highrpm_agent_degradations_total", "Connected-to-degraded flips.", "node"),
		pending:     reg.GaugeVec("highrpm_agent_pending", "Buffered samples still awaiting replay.", "node"),
		degraded:    map[string]bool{},
	}
}

// Observe publishes one agent's current mode and counters. Call it from
// the goroutine that owns the agent (e.g. after each Send).
func (am *AgentMetrics) Observe(ra *ResilientAgent) {
	node := ra.NodeID()
	mode := ra.Mode()
	c := ra.Counters()
	var m float64
	if mode == ModeDegraded {
		m = 1
	}
	am.mode.With(node).Set(m)
	am.sent.With(node).Set(float64(c.Sent))
	am.localServed.With(node).Set(float64(c.LocalServed))
	am.buffered.With(node).Set(float64(c.Buffered))
	am.replayed.With(node).Set(float64(c.Replayed))
	am.dropped.With(node).Set(float64(c.Dropped))
	am.reconnects.With(node).Set(float64(c.Reconnects))
	am.sendFails.With(node).Set(float64(c.SendFailures))
	am.degrads.With(node).Set(float64(c.Degradations))
	am.pending.With(node).Set(float64(ra.Pending()))
	am.mu.Lock()
	am.degraded[node] = mode == ModeDegraded
	am.mu.Unlock()
}

// AnyDegraded reports whether any observed agent is currently degraded —
// the input to the ready-but-degraded /readyz answer.
func (am *AgentMetrics) AnyDegraded() bool {
	am.mu.Lock()
	defer am.mu.Unlock()
	for _, d := range am.degraded {
		if d {
			return true
		}
	}
	return false
}
