package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"highrpm/internal/cluster"
	"highrpm/internal/tsdb"
)

// answerQuery resolves a front-end KindQuery into w: one node's history is
// read from a live replica of its owner shard and relayed as the shard
// framed it, without decoding a point, and the cluster-wide aggregate
// (empty NodeID) is scatter-gathered from every shard.
func (r *Router) answerQuery(q cluster.QueryRequest, w *cluster.SeriesWriter) error {
	if q.NodeID == "" {
		return r.scatterAggregate(q, w)
	}
	if err := r.queryNode(q, -1, nil, w.Relay); err != nil {
		return err
	}
	r.nodeQueries.Add(1)
	return nil
}

// queryNode reads one node's series, walking its replicas until one
// answers: healthy replicas first (degraded shards are drained from the
// read path), primary order within each class. take receives the answering
// replica's undecoded reply; a reply it refuses counts against that
// replica. A *ServiceError does not end the walk — the primary may
// legitimately lack history the follower holds while a replay is still
// catching up — but if every replica rejects, the first rejection is
// returned (so an unknown channel reads the same as on a single service).
// A caller that already asked shard tried, and got prior for it, passes
// both and the walk covers the other replicas; -1 and nil walk them all.
func (r *Router) queryNode(q cluster.QueryRequest, tried int, prior error, take func(*cluster.SeriesReply) error) error {
	var firstRejection, firstErr error
	if cluster.IsRejection(prior) {
		firstRejection = prior
	} else {
		firstErr = prior
	}
	var buf [8]int
	nodes := [1]string{q.NodeID}
	for _, idx := range r.readOrder(q.NodeID, buf[:0]) {
		if idx == tried {
			continue
		}
		var errs [1]error
		r.fetch(idx, q, nodes[:], errs[:], func(_ int, rep *cluster.SeriesReply) error { return take(rep) })
		switch err := errs[0]; {
		case err == nil:
			return nil
		case !cluster.IsRejection(err):
			if firstErr == nil {
				firstErr = err
			}
		case firstRejection == nil:
			firstRejection = err
		}
	}
	if firstRejection != nil {
		return firstRejection
	}
	return firstErr
}

// fetch is the router's one back-hop read: it asks shard idx for q of every
// node in nodes over the shard's pooled query connection — pipelined, see
// cluster.Agent.QueryNodes, and holding the connection for the whole group —
// and hands reply i to take. errs[i] receives node i's outcome: nil once
// take accepted its reply, the shard's rejection of that node, or, from the
// node the group broke at onwards, the error that broke it. A single-node
// query is a group of one.
func (r *Router) fetch(idx int, q cluster.QueryRequest, nodes []string, errs []error, take func(i int, rep *cluster.SeriesReply) error) {
	done := 0
	err := r.onShard(idx, func(ag *cluster.Agent) (err error) {
		done, err = ag.QueryNodes(q, nodes, r.opts.Agent.RequestTimeout, func(i int, rep *cluster.SeriesReply, rejected *cluster.ServiceError) error {
			if rejected != nil {
				errs[i] = rejected
				return nil
			}
			errs[i] = nil
			return take(i, rep)
		})
		return err
	})
	for i := done; i < len(nodes); i++ {
		errs[i] = err
	}
}

// replicas returns node's owner shards, primary first: the placement its
// route already holds when the router has forwarded for it, the ring's
// otherwise — a query never registers a node.
func (r *Router) replicas(node string) []int {
	r.nmu.Lock()
	nr := r.routes[node]
	r.nmu.Unlock()
	if nr != nil {
		return nr.owners
	}
	return r.ring.owners(node, r.opts.Replication)
}

// readOrder appends to buf node's replicas in the order reads try them:
// healthy shards first (degraded ones are drained from the read path),
// primary order within each class. Each health bit is read once, so the
// result is always a permutation of the owners.
func (r *Router) readOrder(node string, buf []int) []int {
	var downBuf [8]int
	down := downBuf[:0]
	for _, idx := range r.replicas(node) {
		if r.shards[idx].up.Load() {
			buf = append(buf, idx)
		} else {
			down = append(down, idx)
		}
	}
	return append(buf, down...)
}

// onShard runs call on idx's pooled query connection under RequestTimeout,
// dialing it on first use and again once a transport error dropped it, and
// maintains the shard's health bit. A failed dial holds the next one back
// for DialRetry, so a dead shard costs one attempt per DialRetry however
// many reads arrive. A rejection leaves the connection open; any other error
// closes it.
func (r *Router) onShard(idx int, call func(*cluster.Agent) error) error {
	st := r.shards[idx]
	st.qmu.Lock()
	defer st.qmu.Unlock()
	if st.query == nil {
		if time.Now().Before(st.nextDial) {
			return fmt.Errorf("fleet: shard %s unreachable", st.shard.Name)
		}
		ag, err := cluster.DialTimeout(st.shard.Addr, "", r.opts.Agent.DialTimeout)
		if err != nil {
			st.nextDial = time.Now().Add(r.opts.DialRetry)
			st.up.Store(false)
			return fmt.Errorf("fleet: dial shard %s: %w", st.shard.Name, err)
		}
		st.query = ag
		st.hasQuery.Store(true)
	}
	if t := r.opts.Agent.RequestTimeout; t > 0 {
		st.query.SetDeadline(time.Now().Add(t))
	}
	err := call(st.query)
	broken := err != nil && !cluster.IsRejection(err)
	if broken {
		_ = st.query.Close()
		st.query = nil
		st.hasQuery.Store(false)
	}
	st.up.Store(!broken)
	return err
}

// queryTarget picks the shard to read node's history from: the primary
// when healthy, otherwise the first healthy follower, falling back to the
// primary when every replica looks down.
func (r *Router) queryTarget(node string) int {
	var buf [8]int
	return r.readOrder(node, buf[:0])[0]
}

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
// series is fetched from a live replica of its owner — nodes grouped by
// target shard, each group pipelined over its shard's query connection,
// the groups in parallel — then merged serially in sorted node order by
// tsdb.MergeNodeSeries, the exact accumulation a single service's
// Aggregate performs after its own parallel fan-out. Floating-point
// addition is not associative, so fetching per-node series and sharing
// that merge is what keeps a fleet's aggregate byte-identical to the
// single-store answer; merging per-shard pre-aggregates, or folding
// replies in as they arrive, would not be. The merge therefore waits for
// the full set.
func (r *Router) scatterAggregate(q cluster.QueryRequest, w *cluster.SeriesWriter) error {
	res, err := tsdb.ParseResolution(q.ResolutionS)
	if err != nil {
		return err
	}
	if !validChannel(q.Channel) {
		return fmt.Errorf("tsdb: unknown channel %q", q.Channel)
	}
	start := time.Now()
	nodes := r.recordedNodes()
	results := make([][]tsdb.Point, len(nodes))
	errs := make([]error, len(nodes))
	groups := make([]shardGroup, len(r.shards))
	for i, node := range nodes {
		g := &groups[r.queryTarget(node)]
		g.nodes, g.pos = append(g.nodes, node), append(g.pos, i)
	}
	var bufs []*[]tsdb.Point
	var wg sync.WaitGroup
	for idx, g := range groups {
		if len(g.nodes) == 0 {
			continue
		}
		buf := r.gatherBufs.Get().(*[]tsdb.Point)
		bufs = append(bufs, buf)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.gather(idx, q, g, results, errs, buf)
		}()
	}
	wg.Wait()
	// results alias the pooled buffers until the merge has copied out of them.
	defer func() {
		for _, buf := range bufs {
			r.gatherBufs.Put(buf)
		}
	}()
	for i := range errs {
		if errs[i] != nil {
			return errs[i]
		}
	}
	merged := tsdb.MergeNodeSeries(results)
	w.Begin("", q.Channel, int(res), len(merged))
	for _, p := range merged {
		w.Point(p)
	}
	r.scatters.Add(1)
	if h := r.scatterHist.Load(); h != nil {
		h.Observe(time.Since(start).Seconds())
	}
	return nil
}

// shardGroup is the part of a scatter one shard is asked first: the nodes,
// and where each sits in the scatter's sorted node order.
type shardGroup struct {
	nodes []string
	pos   []int
}

// gather fetches group g from its target shard idx and leaves each node's
// points in results and its outcome in errs, at the node's position. Every
// reply of the group decodes into buf, one pooled buffer the results slice
// up. A node the pipelined pass left without an answer — the shard rejected
// it, or the connection died under the group — is read again through
// queryNode's replica walk, from the next replica on: failover and "first
// rejection wins" stay per node.
func (r *Router) gather(idx int, q cluster.QueryRequest, g shardGroup, results [][]tsdb.Point, errs []error, buf *[]tsdb.Point) {
	pts := (*buf)[:0]
	take := func(k int, rep *cluster.SeriesReply) (err error) {
		lo := len(pts)
		pts, err = rep.AppendPoints(pts)
		// A later append may move pts to a larger array; this slice then keeps
		// the old one, where the node's points stay as decoded.
		results[g.pos[k]] = pts[lo:]
		return err
	}
	gerrs := make([]error, len(g.nodes))
	r.fetch(idx, q, g.nodes, gerrs, take)
	for k, err := range gerrs {
		if err != nil {
			q.NodeID = g.nodes[k]
			err = r.queryNode(q, idx, err, func(rep *cluster.SeriesReply) error { return take(k, rep) })
		}
		errs[g.pos[k]] = err
	}
	*buf = pts
}

// recordedNodes lists the nodes with at least one routed estimate, sorted
// — the scatter-gather working set. The router federates what it routed:
// a restarted router in front of pre-loaded shards re-learns its node set
// as traffic (or replay) flows through it.
func (r *Router) recordedNodes() []string {
	r.nmu.Lock()
	defer r.nmu.Unlock()
	nodes := make([]string, 0, len(r.routes))
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
			errs[i] = r.onShard(i, func(ag *cluster.Agent) (err error) {
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
		out.Store.Merge(st.Store)
	}
	if reachable == 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("fleet: no shards")
		}
		return cluster.Stats{}, firstErr
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

// fetchModel answers a front-end KindModel with the first reachable
// shard's model bytes, as that shard serialised them: every shard serves
// the same trained model.
func (r *Router) fetchModel() (data []byte, err error) {
	var firstErr error
	for idx := range r.shards {
		err = r.onShard(idx, func(ag *cluster.Agent) (err error) {
			data, err = ag.FetchModel()
			return err
		})
		if err == nil {
			return data, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}
