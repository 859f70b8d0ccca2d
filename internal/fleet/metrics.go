package fleet

import (
	"fmt"

	"highrpm/internal/cluster"
	"highrpm/internal/obs"
)

// ShardStatus is the router's live view of one backend shard.
type ShardStatus struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	// Up is the health bit routing reads: false drains the shard from the
	// query path and marks its replicas for failover.
	Up bool `json:"up"`
	// NodeAgents is the number of pooled backend connections currently
	// open to the shard: the per-node forwarding connections plus the
	// shard's query connection while it is open.
	NodeAgents int `json:"node_agents"`
	// Degraded counts forwarding connections running in degraded mode
	// (buffering samples for in-order replay).
	Degraded int `json:"degraded"`
	// Pending is the total number of buffered samples awaiting replay to
	// the shard across its forwarding connections.
	Pending int `json:"pending"`
}

// Stats is the router's own accounting — the fleet-level counters that do
// not exist on any single backend. Backend-shaped totals come from
// MergedStats instead.
type Stats struct {
	Shards []ShardStatus `json:"shards"`
	Nodes  int           `json:"nodes"`
	// ConnStats is the front end's accounting (cluster.Server.Stats): its
	// BinFrames/JSONFrames count front-end requests per wire codec, and
	// JSONFrames growing faster than one Hello per connection means some
	// agent still speaks JSON on the front hop.
	cluster.ConnStats
	Routed     int64 `json:"routed"`
	Replicated int64 `json:"replicated"`
	// Relayed counts the samples live followers recorded from the primary's
	// estimate instead of inferring them again — inferences replication did
	// not cost. A request the primary answered live is relayed whole,
	// measured samples included.
	Relayed        int64 `json:"relayed"`
	FailedOver     int64 `json:"failed_over"`
	RouteErrors    int64 `json:"route_errors"`
	ScatterGathers int64 `json:"scatter_gathers"`
	// NodeQueries counts answered single-node history reads, each relayed
	// to the front end as the shard framed it, without a point decoded.
	NodeQueries int64 `json:"node_queries"`
}

// Stats snapshots the router's routing state: per-shard health and
// connection pools plus the fleet counters.
func (r *Router) Stats() Stats {
	out := Stats{
		ConnStats:      r.srv.Stats(),
		Routed:         r.routed.Load(),
		Replicated:     r.replicated.Load(),
		Relayed:        r.relayed.Load(),
		FailedOver:     r.failedOver.Load(),
		RouteErrors:    r.routeErrors.Load(),
		ScatterGathers: r.scatters.Load(),
		NodeQueries:    r.nodeQueries.Load(),
	}
	agents := make([]int, len(r.shards))
	degraded := make([]int, len(r.shards))
	pending := make([]int, len(r.shards))
	r.nmu.Lock()
	routes := make([]*nodeRoute, 0, len(r.routes))
	//lint:ignore maporder per-shard sums are order-independent
	for _, nr := range r.routes {
		routes = append(routes, nr)
	}
	r.nmu.Unlock()
	for _, nr := range routes {
		nr.mu.Lock()
		for i, idx := range nr.owners {
			ag := nr.reps[i].agent
			if ag == nil {
				continue
			}
			agents[idx]++
			if ag.Mode() == cluster.ModeDegraded {
				degraded[idx]++
			}
			pending[idx] += ag.Pending()
		}
		nr.mu.Unlock()
	}
	for i, st := range r.shards {
		if st.hasQuery.Load() {
			agents[i]++
		}
		out.Shards = append(out.Shards, ShardStatus{
			Name:       st.shard.Name,
			Addr:       st.shard.Addr,
			Up:         st.up.Load(),
			NodeAgents: agents[i],
			Degraded:   degraded[i],
			Pending:    pending[i],
		})
	}
	out.Nodes = len(r.recordedNodes())
	return out
}

// RegisterMetrics exports the router onto reg: per-shard health and pool
// gauges, the front end's connection series (cluster.Server.RegisterMetrics
// under highrpm_fleet), routing/replication/failover counters, and the
// scatter-gather latency histogram. Counters are refreshed from one Stats
// snapshot per scrape via the registry's gather hook (the same mirroring
// discipline cluster.Service.RegisterMetrics uses). Call once.
func (r *Router) RegisterMetrics(reg *obs.Registry) {
	shardUp := reg.GaugeVec("highrpm_fleet_shard_up",
		"1 while the shard is routable, 0 while it is drained from reads and failed over on writes.", "shard")
	shardAgents := reg.GaugeVec("highrpm_fleet_shard_agents",
		"Pooled backend connections open to the shard (per-node forwarders plus the query connection).", "shard")
	shardDegraded := reg.GaugeVec("highrpm_fleet_shard_degraded",
		"Pooled connections to the shard running degraded (buffering for in-order replay).", "shard")
	shardPending := reg.GaugeVec("highrpm_fleet_shard_pending",
		"Samples buffered for in-order replay to the shard.", "shard")
	nodes := reg.Gauge("highrpm_fleet_nodes", "Nodes the router has routed estimates for.")
	r.srv.RegisterMetrics(reg, "highrpm_fleet")
	routed := reg.Counter("highrpm_fleet_routed_total", "Samples and batches answered live by their primary shard.")
	replicated := reg.Counter("highrpm_fleet_replicated_total", "Live follower writes (per replica beyond the primary).")
	relayed := reg.Counter("highrpm_fleet_relayed_total", "Samples live followers recorded from the primary's estimate instead of inferring them again.")
	failedOver := reg.Counter("highrpm_fleet_failovers_total", "Replies taken over by a follower while the primary was down.")
	routeErrors := reg.Counter("highrpm_fleet_route_errors_total", "Front-end requests answered with an error.")
	scatters := reg.Counter("highrpm_fleet_scatter_gathers_total", "Scatter-gather fan-outs (aggregate queries and merged stats).")
	nodeQueries := reg.Counter("highrpm_fleet_node_queries_total", "Single-node history reads answered.")

	hist := reg.Histogram("highrpm_fleet_scatter_seconds",
		"Wall-clock latency of one scatter-gather fan-out across all shards.",
		[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5})
	r.scatterHist.Store(&hist)

	reg.OnGather(func() {
		st := r.Stats()
		for _, sh := range st.Shards {
			up := 0.0
			if sh.Up {
				up = 1
			}
			shardUp.With(sh.Name).Set(up)
			shardAgents.With(sh.Name).Set(float64(sh.NodeAgents))
			shardDegraded.With(sh.Name).Set(float64(sh.Degraded))
			shardPending.With(sh.Name).Set(float64(sh.Pending))
		}
		nodes.Set(float64(st.Nodes))
		routed.Set(float64(st.Routed))
		replicated.Set(float64(st.Replicated))
		relayed.Set(float64(st.Relayed))
		failedOver.Set(float64(st.FailedOver))
		routeErrors.Set(float64(st.RouteErrors))
		scatters.Set(float64(st.ScatterGathers))
		nodeQueries.Set(float64(st.NodeQueries))
	})
}

// Health reports the router's readiness for the obs /readyz probe:
// not ready while the listener is down or no shard is reachable, ready
// but degraded while any shard is down or any pooled connection is
// buffering, fully ready otherwise.
func (r *Router) Health() obs.Health {
	if !r.srv.Listening() {
		return obs.Health{Ready: false, Detail: "router not listening"}
	}
	st := r.Stats()
	up, degraded := 0, 0
	for _, sh := range st.Shards {
		if sh.Up {
			up++
		} else {
			degraded++
		}
		if sh.Degraded > 0 {
			degraded++
		}
	}
	if up == 0 {
		return obs.Health{Ready: false, Detail: "no shard reachable"}
	}
	if degraded > 0 {
		return obs.Health{
			Ready:    true,
			Degraded: true,
			Detail:   fmt.Sprintf("%d/%d shards up", up, len(st.Shards)),
		}
	}
	return obs.Health{Ready: true}
}
