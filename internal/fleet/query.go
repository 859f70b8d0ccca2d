package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"highrpm/internal/cluster"
	"highrpm/internal/core"
	"highrpm/internal/tsdb"
)

// answerQuery resolves a front-end KindQuery: one node's history is read
// from a live replica of its owner shard, the cluster-wide aggregate
// (empty NodeID) is scatter-gathered from every shard.
func (r *Router) answerQuery(q cluster.QueryRequest) (cluster.SeriesBody, error) {
	if q.NodeID != "" {
		return r.queryNode(q)
	}
	return r.scatterAggregate(q)
}

// queryNode reads one node's series, walking its replicas until one
// answers: healthy replicas first (degraded shards are drained from the
// read path), primary order within each class. A *ServiceError does not
// end the walk — the primary may legitimately lack history the follower
// holds while a replay is still catching up — but if every replica
// rejects, the first rejection is returned (so an unknown channel reads
// the same as on a single service).
func (r *Router) queryNode(q cluster.QueryRequest) (cluster.SeriesBody, error) {
	var firstRejection, firstErr error
	for _, idx := range r.readOrder(q.NodeID) {
		var body cluster.SeriesBody
		err := r.onShard(idx, func(ag *cluster.ResilientAgent) (err error) {
			body, err = ag.Query(q)
			return err
		})
		if err == nil {
			return body, nil
		}
		var se *cluster.ServiceError
		if errors.As(err, &se) {
			if firstRejection == nil {
				firstRejection = err
			}
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if firstRejection != nil {
		return cluster.SeriesBody{}, firstRejection
	}
	return cluster.SeriesBody{}, firstErr
}

// readOrder lists node's replicas in the order reads try them: healthy
// shards first (degraded ones are drained from the read path), primary
// order within each class. Each health bit is read once, so the result is
// always a permutation of the owners.
func (r *Router) readOrder(node string) []int {
	owners := r.ring.owners(node, r.opts.Replication)
	ordered := make([]int, 0, len(owners))
	var down []int
	for _, idx := range owners {
		if r.shards[idx].up.Load() {
			ordered = append(ordered, idx)
		} else {
			down = append(down, idx)
		}
	}
	return append(ordered, down...)
}

// onShard runs call on idx's pooled query connection, maintaining the
// shard's health bit.
func (r *Router) onShard(idx int, call func(*cluster.ResilientAgent) error) error {
	st := r.shards[idx]
	st.qmu.Lock()
	defer st.qmu.Unlock()
	ag, err := r.queryAgentLocked(st)
	if err != nil {
		return err
	}
	err = call(ag)
	var se *cluster.ServiceError
	st.up.Store(err == nil || errors.As(err, &se))
	return err
}

// queryAgentLocked returns st's query connection, dialing on first use
// and again DialRetry after a failed attempt. Callers hold st.qmu.
func (r *Router) queryAgentLocked(st *shardState) (*cluster.ResilientAgent, error) {
	if st.query != nil {
		return st.query, nil
	}
	if time.Now().Before(st.nextDial) {
		return nil, errShardUnreachable(st.shard.Name)
	}
	ag, err := cluster.DialResilientShared(st.shard.Addr, "fleet-router", r.opts.Agent, &r.models)
	if err != nil {
		st.nextDial = time.Now().Add(r.opts.DialRetry)
		st.up.Store(false)
		return nil, fmt.Errorf("fleet: dial shard %s: %w", st.shard.Name, err)
	}
	st.query = ag
	st.up.Store(true)
	return ag, nil
}

// queryTarget picks the shard to read node's history from: the primary
// when healthy, otherwise the first healthy follower, falling back to the
// primary when every replica looks down.
func (r *Router) queryTarget(node string) int { return r.readOrder(node)[0] }

// validChannel mirrors the store's channel validation so an aggregate
// over zero known nodes still rejects unknown channels like a single
// service would.
func validChannel(ch string) bool {
	for _, c := range tsdb.Channels() {
		if c == tsdb.Channel(ch) {
			return true
		}
	}
	return false
}

// scatterAggregate answers the cluster-wide aggregate: every known node's
// series is fetched from a live replica of its owner (nodes grouped by
// target shard, shards read in parallel), then merged serially in sorted
// node order by tsdb.MergeNodeSeries — the exact accumulation a single
// service's Aggregate performs after its own parallel fan-out.
// Floating-point addition is not associative, so fetching per-node series
// and sharing that merge is what keeps a fleet's aggregate byte-identical
// to the single-store answer; merging per-shard pre-aggregates would not
// be.
func (r *Router) scatterAggregate(q cluster.QueryRequest) (cluster.SeriesBody, error) {
	res, err := tsdb.ParseResolution(q.ResolutionS)
	if err != nil {
		return cluster.SeriesBody{}, err
	}
	if !validChannel(q.Channel) {
		return cluster.SeriesBody{}, fmt.Errorf("tsdb: unknown channel %q", q.Channel)
	}
	start := time.Now()
	nodes := r.recordedNodes()
	results := make([][]tsdb.Point, len(nodes))
	errs := make([]error, len(nodes))
	// Group nodes by target shard: each shard's query connection serves
	// its group's reads in order while the groups run in parallel —
	// per-shard serialization is free (the connection is serialized
	// anyway) and cross-shard reads genuinely overlap.
	groups := map[int][]int{}
	order := make([]int, 0, len(r.shards))
	for i, node := range nodes {
		idx := r.queryTarget(node)
		if _, ok := groups[idx]; !ok {
			order = append(order, idx)
		}
		groups[idx] = append(groups[idx], i)
	}
	var wg sync.WaitGroup
	for _, idx := range order {
		batch := groups[idx]
		wg.Add(1)
		go func(batch []int) {
			defer wg.Done()
			for _, i := range batch {
				req := q
				req.NodeID = nodes[i]
				body, err := r.queryNode(req)
				if err != nil {
					errs[i] = err
					continue
				}
				results[i] = body.StorePoints()
			}
		}(batch)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			return cluster.SeriesBody{}, errs[i]
		}
	}
	merged := tsdb.MergeNodeSeries(results)
	r.scatters.Add(1)
	if h := r.scatterHist.Load(); h != nil {
		h.Observe(time.Since(start).Seconds())
	}
	return cluster.SeriesBody{
		Channel:     q.Channel,
		ResolutionS: int(res),
		Points:      tsdb.ToSeriesPoints(merged),
	}, nil
}

// recordedNodes lists the nodes with at least one routed estimate, sorted
// — the scatter-gather working set. The router federates what it routed:
// a restarted router in front of pre-loaded shards re-learns its node set
// as traffic (or replay) flows through it.
func (r *Router) recordedNodes() []string {
	r.nmu.Lock()
	defer r.nmu.Unlock()
	nodes := make([]string, 0, len(r.routes))
	//lint:ignore maporder the slice is sorted before use
	for id, nr := range r.routes {
		if nr.recorded.Load() {
			nodes = append(nodes, id)
		}
	}
	sort.Strings(nodes)
	return nodes
}

// knownNodes counts every node that said Hello or sent a sample — the
// same registration rule cluster.Service applies to its Stats.Nodes
// (a monitor exists from the Hello on), which is what keeps the merged
// answer byte-identical.
func (r *Router) knownNodes() int {
	r.nmu.Lock()
	defer r.nmu.Unlock()
	return len(r.routes)
}

// MergedStats scatter-gathers Stats from every shard in parallel and sums
// them into one service-shaped answer, so existing tooling
// (highrpm-query -stats, Agent.Stats) works unchanged against a fleet.
// Nodes and the connection fields are the router's own front-end
// accounting — backends also see the router's pooled connections, and
// with R > 1 each node R times, so their per-shard values are views of
// transport, not of the fleet. Summed sample/store counters count each
// replicated sample once per replica: they measure capacity spent, which
// with R = 1 equals the single-service numbers exactly. Unreachable
// shards are skipped (their health bit drops); only if no shard answers
// does the front-end get an error.
func (r *Router) MergedStats() (cluster.Stats, error) {
	scStart := time.Now()
	per := make([]cluster.Stats, len(r.shards))
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.onShard(i, func(ag *cluster.ResilientAgent) (err error) {
				per[i], err = ag.Stats()
				return err
			})
		}(i)
	}
	wg.Wait()
	var out cluster.Stats
	out.Store.SnapshotAgeSeconds = -1
	reachable := 0
	var firstErr error
	for i := range per {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		reachable++
		st := &per[i]
		out.Samples += st.Samples
		out.Estimates += st.Estimates
		out.Measured += st.Measured
		out.Relayed += st.Relayed
		out.Rejected += st.Rejected
		out.TimedOut += st.TimedOut
		out.BinConns += st.BinConns
		out.BinFrames += st.BinFrames
		out.JSONFrames += st.JSONFrames
		out.Batches += st.Batches
		out.BatchSamples += st.BatchSamples
		mergeStoreStats(&out.Store, st.Store)
	}
	if reachable == 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("fleet: no shards")
		}
		return cluster.Stats{}, firstErr
	}
	if out.Store.Points > 0 {
		out.Store.BytesPerPoint = float64(out.Store.RawBytes) / float64(out.Store.Points)
		out.Store.CompressionRatio = 16 / out.Store.BytesPerPoint
	}
	out.Nodes = r.knownNodes()
	front := r.srv.Stats()
	out.Conns, out.PeakConns, out.NodeConns = front.Conns, front.PeakConns, front.NodeConns
	r.scatters.Add(1)
	if h := r.scatterHist.Load(); h != nil {
		h.Observe(time.Since(scStart).Seconds())
	}
	return out, nil
}

// mergeStoreStats sums one shard's store footprint into the fleet total.
// Per-node series are disjoint across shards (for R = 1), and Gorilla
// compression is per-series, so the sums equal a single store's numbers
// exactly. The derived ratios are recomputed by the caller from the
// summed totals; SnapshotAgeSeconds keeps the newest snapshot's age.
func mergeStoreStats(dst *tsdb.Stats, s tsdb.Stats) {
	dst.Nodes += s.Nodes
	dst.Series += s.Series
	dst.Points += s.Points
	dst.Bytes += s.Bytes
	dst.RawBytes += s.RawBytes
	dst.Ingested += s.Ingested
	dst.Queries += s.Queries
	dst.PointsReturned += s.PointsReturned
	dst.EvictedPoints += s.EvictedPoints
	dst.CacheHits += s.CacheHits
	dst.CacheMisses += s.CacheMisses
	dst.CachePoints += s.CachePoints
	dst.WALBytes += s.WALBytes
	dst.WALFsyncs += s.WALFsyncs
	dst.WALRecords += s.WALRecords
	dst.ReplayedRecords += s.ReplayedRecords
	dst.Snapshots += s.Snapshots
	if s.SnapshotAgeSeconds >= 0 && (dst.SnapshotAgeSeconds < 0 || s.SnapshotAgeSeconds < dst.SnapshotAgeSeconds) {
		dst.SnapshotAgeSeconds = s.SnapshotAgeSeconds
	}
}

// fetchModel answers a front-end KindModel from a query connection's
// model snapshot — every shard serves the same trained model, and the
// snapshot was fetched through the very model-fetch path agents use, so
// no extra backend round trip is needed.
func (r *Router) fetchModel() ([]byte, error) {
	var firstErr error
	for _, st := range r.shards {
		st.qmu.Lock()
		ag, err := r.queryAgentLocked(st)
		st.qmu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return core.Marshal(ag.Model())
	}
	return nil, firstErr
}
