package fleet

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"highrpm/internal/cluster"
	"highrpm/internal/obs"
	"highrpm/internal/tsdb"
)

// Router fronts N cluster.Service backends behind one listener speaking
// the ordinary cluster wire protocol. Its front end is a cluster.Server —
// the same connection server, limits, deadlines and codec negotiation a
// Service runs — so an agent that dials a router gets the binary codec it
// offers exactly as it would from a service, and a JSON-pinned agent's
// samples, stats and model fetches are answered as a service answers them;
// the router is that server's Handler and answers every request from the
// fleet instead of a local model and store. Its backend hops offer the
// binary codec, which every cluster.Server accepts.
// See the package comment for the routing, replication, and federation
// semantics.
type Router struct {
	opts   TopologyOptions
	ring   *ring
	shards []*shardState
	srv    *cluster.Server

	// nmu guards routes, the per-node forwarding registry. The registry is
	// also the scatter-gather working set: a node joins it the first time
	// an estimate is produced for it.
	nmu    sync.Mutex
	routes map[string]*nodeRoute

	// models interns the model snapshots the per-node agents fetch: every
	// shard serves the same model, so the hundred-odd ingest connections
	// share one decoded copy instead of keeping one each.
	models cluster.ModelCache

	routed      atomic.Int64
	replicated  atomic.Int64
	relayed     atomic.Int64
	failedOver  atomic.Int64
	routeErrors atomic.Int64
	scatters    atomic.Int64
	// nodeQueries counts answered single-node reads.
	nodeQueries atomic.Int64

	// gatherBufs pools the point buffers a scatter-gather decodes its replies
	// into (*[]tsdb.Point, one per shard group), so an aggregate's scratch is
	// reused instead of re-allocated per query.
	gatherBufs sync.Pool

	// scatterHist, when set (RegisterMetrics), observes each
	// scatter-gather's wall-clock latency.
	scatterHist atomic.Pointer[obs.Histogram]

	// Logf sinks router logs (defaults to log.Printf).
	Logf func(format string, args ...any)
}

// shardState is the router's view of one backend: the health bit the
// drain/failover decisions read, and the shard's pooled query connection.
// Per-node forwarding connections live on the nodeRoutes instead.
type shardState struct {
	shard Shard
	up    atomic.Bool

	qmu      sync.Mutex
	query    *cluster.Agent // lazily dialed, nil after a transport error; serves queries, stats, model
	nextDial time.Time
	// hasQuery mirrors query != nil. It is written under qmu and read
	// without it by Stats: qmu is held across whole round trips (a pipelined
	// group of them), and a scrape must not wait out a request parked on a
	// dead shard.
	hasQuery atomic.Bool
}

// nodeRoute is one node's forwarding state: one replica slot per owning
// shard (primary first), each with its pooled ResilientAgent. mu serializes
// the node's whole ingest path — that is what preserves per-node sample
// order across retries, degraded buffering, and replay — while distinct
// nodes forward in parallel. Everything a forwarded request needs is
// scratch here, guarded by mu, or a batch reply buffer from replyBufs, so
// forwarding allocates nothing per request.
type nodeRoute struct {
	mu       sync.Mutex
	owners   []int
	reps     []replica
	recorded atomic.Bool // an estimate was produced: the node exists for scatter-gather

	// wg waits for the followers replicate runs on goroutines of their own
	// (R > 2).
	wg sync.WaitGroup
	// relayEsts holds the primary's estimates while they ride a request to
	// the followers.
	relayEsts []cluster.RelayedEstimate
}

// replica is one owner's slot in a nodeRoute: its pooled agent, the
// earliest next dial, and the outcome of the request being forwarded. Each
// replica's outcome is written only by the goroutine sending to it.
type replica struct {
	agent    *cluster.ResilientAgent
	nextDial time.Time

	ests []cluster.Estimate  // the reply, in buf
	buf  *[]cluster.Estimate // the reply's buffer, held from replyBufs while forwarding
	err  error
	live bool // transport healthy and the answer came from the service
}

// replyBufs pools the buffers replicas answer a request into (*[]Estimate).
// A buffer is held only while its request is forwarded, so the router keeps
// as many as it has batches in flight, not one per node and replica.
var replyBufs = sync.Pool{New: func() any { return new([]cluster.Estimate) }}

// releaseReplies hands the replicas' reply buffers back to replyBufs once
// the answer has been copied out.
func (nr *nodeRoute) releaseReplies() {
	for i := range nr.reps {
		rp := &nr.reps[i]
		if rp.buf != nil {
			*rp.buf = rp.ests[:0]
			replyBufs.Put(rp.buf)
			rp.buf, rp.ests = nil, nil
		}
	}
}

// attachEstimates points every sample at the primary's estimate for it,
// copied into the route's scratch — valid until the next call.
func (nr *nodeRoute) attachEstimates(samples []cluster.BatchSample, ests []cluster.Estimate) {
	if cap(nr.relayEsts) < len(ests) {
		nr.relayEsts = make([]cluster.RelayedEstimate, len(ests))
	}
	rel := nr.relayEsts[:len(ests)]
	for i := range ests {
		rel[i] = ests[i].Relayed()
		samples[i].Relayed = &rel[i]
	}
}

// NewRouter validates the topology, builds the ring, and returns a router
// ready to Listen. Option zero values take the documented defaults.
func NewRouter(top Topology, opts TopologyOptions) (*Router, error) {
	rg, err := newRing(top.Shards, virtualNodes)
	if err != nil {
		return nil, err
	}
	if opts.Replication < 1 {
		opts.Replication = 1
	}
	if opts.Replication > len(top.Shards) {
		opts.Replication = len(top.Shards)
	}
	if opts.Agent == (cluster.AgentOptions{}) {
		opts.Agent = cluster.DefaultAgentOptions()
	}
	if opts.FrontEnd == (cluster.ServiceOptions{}) {
		opts.FrontEnd = cluster.DefaultServiceOptions()
	}
	if opts.FrontEnd.MaxFrame <= 0 {
		opts.FrontEnd.MaxFrame = cluster.DefaultMaxFrame
	}
	if opts.DialRetry <= 0 {
		opts.DialRetry = DefaultDialRetry
	}
	r := &Router{
		opts:   opts,
		ring:   rg,
		routes: map[string]*nodeRoute{},
		Logf:   log.Printf,
	}
	r.gatherBufs.New = func() any { return new([]tsdb.Point) }
	// Logf is read at call time: callers replace it after construction.
	r.srv = cluster.NewServer("fleet", routerHandler{r}, opts.FrontEnd, func(format string, args ...any) { r.Logf(format, args...) })
	for _, sh := range top.Shards {
		st := &shardState{shard: sh}
		st.up.Store(true)
		r.shards = append(r.shards, st)
	}
	return r, nil
}

// Options reports the resolved options the router runs with.
func (r *Router) Options() TopologyOptions { return r.opts }

// Listen starts accepting front-end agents on addr ("host:port"; ":0"
// picks a free port). It returns immediately; Addr reports the bound
// address.
func (r *Router) Listen(addr string) error { return r.srv.Listen(addr) }

// Addr returns the bound listen address.
func (r *Router) Addr() string { return r.srv.Addr() }

// Close stops the listener, terminates open front-end connections
// immediately, waits for the handlers to finish, and only then closes the
// pooled backend connections — so no handler can touch a closed agent.
// Samples a degraded agent buffered but never replayed are lost, exactly
// as if that agent's node had gone away; use Shutdown for a draining
// stop.
func (r *Router) Close() error { return r.Shutdown(0) }

// Shutdown drains the router gracefully: it stops accepting, lets every
// handler finish the request it is processing (replies are still
// written), reaps idle front-end connections immediately, and
// force-closes whatever remains after grace. Backend connections close
// last.
func (r *Router) Shutdown(grace time.Duration) error {
	err := r.srv.Shutdown(grace)
	r.closeAgents()
	return err
}

// closeAgents tears down every pooled backend connection. Only called
// after the handler WaitGroup drained, so nothing can race the agents.
func (r *Router) closeAgents() {
	r.nmu.Lock()
	routes := make([]*nodeRoute, 0, len(r.routes))
	//lint:ignore maporder teardown order over the route set is immaterial
	for _, nr := range r.routes {
		routes = append(routes, nr)
	}
	r.nmu.Unlock()
	for _, nr := range routes {
		nr.mu.Lock()
		for _, rp := range nr.reps {
			if rp.agent != nil {
				_ = rp.agent.Close()
			}
		}
		nr.mu.Unlock()
	}
	for _, st := range r.shards {
		st.qmu.Lock()
		if st.query != nil {
			_ = st.query.Close()
		}
		st.qmu.Unlock()
	}
}

// routerHandler is the Router's cluster.Handler face: each request kind
// the front-end server decodes is answered from the fleet. A failed
// request counts as a route error; the server relays a backend's
// *ServiceError as the service's own message, byte-identical to a direct
// connection.
type routerHandler struct{ r *Router }

func (h routerHandler) Hello(nodeID string) { h.r.routeFor(nodeID) }

// Batch forwards every front-end request — a batch, or a single sample as
// a batch of one — through ResilientAgent.SendSamples, so a degraded
// replica buffers it in order. The winning replica's estimates sit in a
// pooled buffer, so they are copied into the connection's dst before the
// buffers go back and the route is released. Estimates a front-end peer
// attached are dropped in place (rb is the connection's scratch, the
// handler's to overwrite until it returns).
func (h routerHandler) Batch(rb *cluster.RecordBatch, dst []cluster.Estimate) ([]cluster.Estimate, error) {
	for i := range rb.Samples {
		rb.Samples[i].Relayed = nil
	}
	nr := h.r.routeFor(rb.NodeID)
	nr.mu.Lock()
	defer nr.mu.Unlock()
	defer nr.releaseReplies()
	ests, err := h.r.replicate(nr, rb.NodeID, rb.Samples)
	if err != nil {
		return nil, h.r.countError(err)
	}
	return append(dst, ests...), nil
}

func (h routerHandler) Query(q cluster.QueryRequest, w *cluster.SeriesWriter) error {
	return h.r.countError(h.r.answerQuery(q, w))
}

func (h routerHandler) Stats() (cluster.Stats, error) {
	st, err := h.r.MergedStats()
	return st, h.r.countError(err)
}

func (h routerHandler) Model() ([]byte, error) {
	data, err := h.r.fetchModel()
	return data, h.r.countError(err)
}

func (r *Router) countError(err error) error {
	if err != nil {
		r.routeErrors.Add(1)
	}
	return err
}

// routeFor returns the node's forwarding state, computing ring placement
// on first sight.
func (r *Router) routeFor(nodeID string) *nodeRoute {
	r.nmu.Lock()
	defer r.nmu.Unlock()
	nr, ok := r.routes[nodeID]
	if !ok {
		owners := r.ring.owners(nodeID, r.opts.Replication)
		nr = &nodeRoute{owners: owners, reps: make([]replica, len(owners))}
		r.routes[nodeID] = nr
	}
	return nr
}

// agentFor returns the pooled agent for owner i of nr, dialing on first
// use and again DialRetry after each failed attempt. Nil means the shard
// is unreachable and no model snapshot was ever fetched for this node —
// there is nothing to degrade to. Callers hold nr.mu.
func (r *Router) agentFor(nr *nodeRoute, i int, nodeID string) *cluster.ResilientAgent {
	rp := &nr.reps[i]
	if rp.agent == nil {
		// The cause is dropped: replicate answers a slot without an agent
		// with errShardUnreachable, whatever kept it from dialing.
		rp.agent, _ = dial(r, r.shards[nr.owners[i]], &rp.nextDial, func(addr string) (*cluster.ResilientAgent, error) {
			return cluster.DialResilient(addr, nodeID, r.opts.Agent, &r.models)
		})
	}
	return rp.agent
}

// dial is the router's one gate for opening a pooled backend connection,
// per-node and query alike: it runs open on st's address unless *next, the
// earliest time the next attempt may run, is still ahead — so a dead shard
// costs at most one attempt per DialRetry per connection slot — and sets
// the shard's health bit from the outcome. Callers hold the lock that
// guards *next.
func dial[C any](r *Router, st *shardState, next *time.Time, open func(addr string) (C, error)) (C, error) {
	var none C
	if time.Now().Before(*next) {
		return none, errShardUnreachable(st.shard.Name)
	}
	c, err := open(st.shard.Addr)
	if err != nil {
		*next = time.Now().Add(r.opts.DialRetry)
		st.up.Store(false)
		return none, fmt.Errorf("fleet: dial shard %s: %w", st.shard.Name, err)
	}
	st.up.Store(true)
	return c, nil
}

// errShardUnreachable marks a replica that could not even be dialed.
func errShardUnreachable(name string) error {
	return fmt.Errorf("fleet: shard %s unreachable", name)
}

// replicate is the router's one ingest fan-out: it delivers samples — a
// front-end request, stripped of any estimate a peer attached — to the
// node's primary shard and, with R > 1, to its followers (synchronous
// replication), each on that replica's pooled agent. The caller holds
// nr.mu, and the returned estimates are replica scratch: valid while it
// does.
//
// With R > 1 the primary is asked first, on the calling goroutine. A live,
// complete answer rides to the followers attached in place to the same
// samples (the slice is the caller's to overwrite), measured ones
// included, so each sample is inferred once and a follower only advances
// its monitor state. Any other answer (a local-snapshot fallback, an
// unreachable shard, a rejection) sends the followers the request plain:
// a batch the primary rejected at sample i is rejected by them at sample i
// too, and every replica holds the same prefix. The followers run in
// parallel with each other, the last one on the calling goroutine, so at
// R = 2 the follower leg costs a round trip and no goroutine handoff.
//
// The primary's estimates are the reply; when the primary can only answer
// from its local snapshot (its shard is down, the samples are buffered for
// in-order replay), the first follower with a live service answer takes
// over, so the front-end keeps receiving service-grade estimates through
// single-shard outages.
func (r *Router) replicate(nr *nodeRoute, nodeID string, samples []cluster.BatchSample) ([]cluster.Estimate, error) {
	n := len(nr.reps)
	for i := range nr.reps {
		r.agentFor(nr, i, nodeID)
	}
	r.deliver(nr, 0, samples)
	primary := &nr.reps[0]
	relaying := n > 1 && liveAnswer(primary.ests, primary.err, len(samples))
	if relaying {
		nr.attachEstimates(samples, primary.ests)
	}
	for i := 1; i < n-1; i++ {
		nr.wg.Add(1)
		go func() {
			defer nr.wg.Done()
			r.deliver(nr, i, samples)
		}()
	}
	if n > 1 {
		r.deliver(nr, n-1, samples)
	}
	nr.wg.Wait()
	if relaying {
		for i := 1; i < n; i++ {
			if rp := &nr.reps[i]; liveAnswer(rp.ests, rp.err, len(samples)) {
				r.relayed.Add(int64(len(samples)))
			}
		}
	}
	pick, err := r.settleIdx(nr)
	if err != nil {
		return nil, err
	}
	return nr.reps[pick].ests, nil
}

// deliver sends samples to replica i of nr in one SendSamples, answered
// into a buffer from replyBufs, or records it unreachable when it has no
// agent. It writes only that replica's slot.
func (r *Router) deliver(nr *nodeRoute, i int, samples []cluster.BatchSample) {
	rp := &nr.reps[i]
	if rp.agent == nil {
		rp.ests, rp.err = nil, errShardUnreachable(r.shards[nr.owners[i]].shard.Name)
		return
	}
	rp.buf = replyBufs.Get().(*[]cluster.Estimate)
	rp.ests, rp.err = rp.agent.SendSamples(samples, (*rp.buf)[:0])
}

// liveAnswer reports whether a replica answered all want samples from the
// service itself, none from its agent's local snapshot.
func liveAnswer(ests []cluster.Estimate, err error, want int) bool {
	if err != nil || len(ests) != want {
		return false
	}
	for i := range ests {
		if ests[i].Local {
			return false
		}
	}
	return true
}

// settleIdx updates shard health from the per-replica outcomes, advances
// the routing counters, and picks the replica whose answer becomes the
// front-end reply:
//
//  1. a primary *ServiceError is returned as-is (the service rejected the
//     request over a healthy link; followers rejected it identically),
//  2. a live primary answer wins,
//  3. otherwise the first live follower answer wins (failover),
//  4. otherwise the primary's local-snapshot estimates are served (Local
//     travels to the front-end so callers can see the degradation),
//  5. otherwise any replica's local estimates, and only when every replica
//     failed outright does the caller get an error.
//
// Only an acknowledged estimate counts: an empty batch makes no round trip
// and produces none, so it is answered (empty, as a service would) without
// moving a counter, a health bit, or the node into the scatter-gather set.
func (r *Router) settleIdx(nr *nodeRoute) (int, error) {
	for i, idx := range nr.owners {
		rp := &nr.reps[i]
		rp.live = false
		switch {
		case rp.err != nil:
			r.shards[idx].up.Store(isRejection(rp.err))
		case len(rp.ests) > 0:
			rp.live = !rp.ests[0].Local
			r.shards[idx].up.Store(rp.live)
		}
	}
	reps := nr.reps
	if reps[0].live {
		r.routed.Add(1)
	}
	for i := 1; i < len(reps); i++ {
		if reps[i].live {
			r.replicated.Add(1)
		}
	}
	if isRejection(reps[0].err) {
		return 0, reps[0].err
	}
	if reps[0].live {
		nr.recorded.Store(true)
		return 0, nil
	}
	for i := 1; i < len(reps); i++ {
		if reps[i].live {
			r.failedOver.Add(1)
			nr.recorded.Store(true)
			return i, nil
		}
	}
	for i := range reps {
		if reps[i].err == nil {
			if len(reps[i].ests) > 0 {
				nr.recorded.Store(true)
			}
			return i, nil
		}
	}
	return 0, reps[0].err
}
