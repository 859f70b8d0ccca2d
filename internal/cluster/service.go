package cluster

import (
	"errors"
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"highrpm/internal/core"
	"highrpm/internal/obs"
	"highrpm/internal/tsdb"
)

// ServiceOptions hardens the service against slow, dead, or hostile peers.
// The zero value disables every limit; DefaultServiceOptions gives the
// deployment defaults.
type ServiceOptions struct {
	// ReadTimeout is the longest the service waits between messages on one
	// connection before reaping it (0: wait forever). Agents stream
	// 1 Sa/s, so anything over a few sample intervals means the peer is
	// gone or blackholed.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one reply (0: no bound). It protects the
	// handler from a peer that stops draining its socket.
	WriteTimeout time.Duration
	// MaxFrame caps one wire frame in bytes (0: DefaultMaxFrame). It can
	// only lower the cap: a value above DefaultMaxFrame, the cap every
	// Agent reads with, counts as DefaultMaxFrame.
	MaxFrame int
	// MaxConns caps concurrent connections service-wide (0: unlimited);
	// excess connections are dropped at accept and counted in
	// Stats.Rejected.
	MaxConns int
}

// DefaultServiceOptions returns the deployment defaults: generous enough
// for 1 Sa/s telemetry with sparse gaps, tight enough to reap dead peers.
func DefaultServiceOptions() ServiceOptions {
	return ServiceOptions{
		ReadTimeout:  5 * time.Minute,
		WriteTimeout: time.Minute,
		MaxFrame:     DefaultMaxFrame,
		MaxConns:     0,
	}
}

// Service is the control-node HighRPM service. One trained model is shared
// by every compute node and only ever read here; each node gets its own
// nodeState so power histories never mix. Every estimate is recorded into
// an embedded tsdb store so agents and tools can query power history
// (KindQuery) instead of only watching the live stream.
//
// Everything a sample changes belongs to its node and is guarded by that
// node's lock: a sample takes mu for the map lookup, then its nodeState's
// mu across monitor, latest estimate and store ingest. Concurrent
// connections carrying one node id — a reconnect while the old request is
// still in flight — are therefore serialised in arrival order, and the
// node's monitor order is its store order.
type Service struct {
	model *core.HighRPM
	store *tsdb.Store
	// srv owns the listener, the connections and the request loop; the
	// service is its Handler.
	srv *Server

	mu    sync.Mutex
	nodes map[string]*nodeState

	samples   atomic.Int64
	estimates atomic.Int64
	measured  atomic.Int64
	relayed   atomic.Int64 // samples recorded from a relayed estimate, not inferred here

	// Batching accounting: record batches handled and the samples they
	// carried. A single sample is a batch of one.
	batches      atomic.Int64
	batchSamples atomic.Int64

	// batchHist, when set (RegisterMetrics), observes the size of each
	// record batch — the coalescing factor agents actually achieve.
	batchHist atomic.Pointer[obs.Histogram]

	// meter, when set (RegisterMetrics), prices each estimation tick for
	// the highrpm_overhead_* self-metering series.
	meter atomic.Pointer[obs.SelfMeter]

	// Logf sinks service logs (defaults to log.Printf).
	Logf func(format string, args ...any)
}

// NewService wraps a trained model with DefaultServiceOptions. The service
// records history into a store with tsdb.DefaultOptions(); use SetStore
// before Listen to size it differently.
func NewService(model *core.HighRPM) *Service {
	return NewServiceWith(model, DefaultServiceOptions())
}

// NewServiceWith wraps a trained model with explicit robustness options.
func NewServiceWith(model *core.HighRPM, opts ServiceOptions) *Service {
	s := &Service{
		model: model,
		store: tsdb.New(tsdb.DefaultOptions()),
		nodes: map[string]*nodeState{},
		Logf:  log.Printf,
	}
	// Logf is read at call time: callers replace it after construction.
	s.srv = NewServer("cluster", serviceHandler{s}, opts, func(format string, args ...any) { s.Logf(format, args...) })
	return s
}

// NewDurableService wraps a trained model with a durable history store:
// storeOpts.Dir names the data directory and the store is opened through
// tsdb.Open, replaying any snapshot and WAL left by a previous run. The
// returned Recovery reports what was restored (and any corruption
// tolerated). Close and Shutdown drain the WAL — the store's Close
// flushes and fsyncs the live segment — so a graceful stop loses
// nothing and a crash loses at most one flush interval.
func NewDurableService(model *core.HighRPM, opts ServiceOptions, storeOpts tsdb.Options) (*Service, *tsdb.Recovery, error) {
	st, rec, err := tsdb.Open(storeOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: open durable store: %w", err)
	}
	s := NewServiceWith(model, opts)
	s.store = st
	return s, rec, nil
}

// SetStore replaces the history store. Call before Listen; the previous
// store is discarded.
func (s *Service) SetStore(st *tsdb.Store) { s.store = st }

// Store exposes the history store for in-process queries (the monitor CLI
// reads stats from it; tests query it directly).
func (s *Service) Store() *tsdb.Store { return s.store }

// Listen starts accepting agents on addr ("host:port"; ":0" picks a free
// port). It returns immediately; Addr reports the bound address.
func (s *Service) Listen(addr string) error { return s.srv.Listen(addr) }

// Addr returns the bound listen address.
func (s *Service) Addr() string { return s.srv.Addr() }

// Close stops the listener, terminates open agent connections immediately,
// waits for the handlers to finish, and only then closes the store — so
// every in-flight sample is flushed into the history (open rollup buckets
// are sealed) and no per-connection goroutine can write to a closed store.
// Use Shutdown for a graceful drain.
func (s *Service) Close() error { return s.Shutdown(0) }

// Shutdown drains the service gracefully: it stops accepting, lets every
// handler finish the request it is processing (replies are still written),
// reaps idle connections immediately, and force-closes whatever remains
// after grace. Like Close it seals the store last, so drained samples land
// in history.
func (s *Service) Shutdown(grace time.Duration) error {
	err := s.srv.Shutdown(grace)
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// nodeState is everything the service keeps for one node. mu guards the
// rest and is held across a whole sample.
type nodeState struct {
	mu  sync.Mutex
	mon *core.Monitor
	// latest is the newest estimate — what the obs
	// highrpm_node_power_watts gauges and dashboards read; estimated says
	// there is one (a Hello alone creates the node without it).
	latest    LatestEstimate
	estimated bool
}

// checkTime refuses a sample time that is not finite or runs behind the
// node's newest accepted one, before anything of the node changes: a
// node's history is ordered by time, and its monitor sees samples in the
// order the store keeps them. An equal time never reaches it (see
// processSample).
func (n *nodeState) checkTime(tm float64) error {
	if math.IsNaN(tm) || math.IsInf(tm, 0) {
		return &ServiceError{Message: fmt.Sprintf("sample time %g is not finite", tm)}
	}
	if n.estimated && tm < n.latest.Time {
		return &ServiceError{Message: fmt.Sprintf("sample time %g is before the node's latest %g", tm, n.latest.Time)}
	}
	return nil
}

// checkRelayed refuses a relayed estimate with a field that is not finite.
// The service records and answers a relayed estimate as it stands, so a NaN
// would reach the store and the reply, which a JSON connection cannot
// marshal.
func checkRelayed(rel *RelayedEstimate) error {
	for _, v := range [...]float64{rel.PNode, rel.PCPU, rel.PMEM} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &ServiceError{Message: fmt.Sprintf("relayed estimate %g is not finite", v)}
		}
	}
	return nil
}

// node returns the per-node state, creating it on first use.
func (s *Service) node(nodeID string) *nodeState {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[nodeID]
	if !ok {
		n = &nodeState{mon: core.NewMonitor(s.model)}
		s.nodes[nodeID] = n
	}
	return n
}

// serviceHandler is the Service's Handler face: each request kind the
// Server decodes lands on the local model and store. It is a separate type
// so the scratch-borrowing methods stay out of the Service's public API.
type serviceHandler struct{ s *Service }

func (h serviceHandler) Hello(nodeID string) { h.s.node(nodeID) }

func (h serviceHandler) Batch(rb *RecordBatch, dst []Estimate) ([]Estimate, error) {
	return h.s.processBatch(rb, dst)
}

// Query resolves a KindQuery against the store through tsdb.WalkSeries, the
// walk behind the QuerySeries the obs HTTP endpoints answer with — one code
// path, one series, whichever sink receives it. A node's points go from the
// Gorilla blocks straight into the connection's reply.
func (h serviceHandler) Query(q QueryRequest, w *SeriesWriter) error {
	return h.s.store.WalkSeries(q.NodeID, q.Channel, q.From, q.To, q.ResolutionS, w)
}

func (h serviceHandler) Stats() (Stats, error) { return h.s.Stats(), nil }

func (h serviceHandler) Model() ([]byte, error) { return core.Marshal(h.s.model) }

// processSample runs one second of telemetry through the per-node monitor
// and into the history store, under the node's lock; processBatch runs it
// for every sample, whatever framing carried it. It borrows pmc only for
// the call. With rel, the estimate another replica already computed for
// this sample, the monitor only Observes: rel is what gets counted, gauged,
// stored and answered, exactly as the monitor's own estimate would be, and
// the stored trend value still comes from this service's monitor.
//
// A sample at the node's newest accepted time — a replay whose
// acknowledgement was lost — is answered from the record and changes
// nothing: no monitor step, no history point, no counter.
func (s *Service) processSample(nodeID string, tm float64, pmc []float64, measured *float64, rel *RelayedEstimate) (Estimate, error) {
	n := s.node(nodeID)
	n.mu.Lock()
	defer n.mu.Unlock()
	//lint:ignore floateq a re-send carries the very time value the node recorded
	if n.estimated && tm == n.latest.Time {
		return n.latest.reply(nodeID), nil
	}
	s.samples.Add(1)
	if measured != nil {
		s.measured.Add(1)
	}
	if err := n.checkTime(tm); err != nil {
		return Estimate{}, err
	}
	if rel != nil {
		if err := checkRelayed(rel); err != nil {
			return Estimate{}, err
		}
	}
	// One estimation tick — model inference plus the history record — is
	// the unit the overhead self-metering prices.
	tickDone := s.meter.Load().Tick()
	var est core.MonitorEstimate
	var err error
	if rel != nil {
		est = core.MonitorEstimate{PNode: rel.PNode, PCPU: rel.PCPU, PMEM: rel.PMEM, FromMeasurement: rel.FromMeasurement}
		est.PNodePrime, err = n.mon.Observe(pmc, measured)
	} else {
		est, err = n.mon.Push(pmc, measured)
	}
	if err != nil {
		tickDone()
		return Estimate{}, err
	}
	if rel != nil {
		s.relayed.Add(1)
	}
	s.estimates.Add(1)
	rec := tsdb.Sample{PNode: est.PNode, PCPU: est.PCPU, PMEM: est.PMEM, PNodePrime: est.PNodePrime, IPMI: math.NaN()}
	if measured != nil {
		rec.IPMI = *measured
	}
	n.latest, n.estimated = LatestEstimate{Time: tm, Sample: rec, FromMeasurement: est.FromMeasurement}, true
	// History is best-effort, estimates are not: an ErrClosed during
	// shutdown is expected (Close is racing the last samples); anything
	// else is logged but never fails the connection.
	if err := s.store.Ingest(nodeID, tm, rec); err != nil && !errors.Is(err, tsdb.ErrClosed) {
		s.Logf("cluster: store ingest %s: %v", nodeID, err)
	}
	tickDone()
	return n.latest.reply(nodeID), nil
}

// processBatch runs a record batch through processSample in order,
// appending the estimates to dst (reused by the serve loop). It is the
// service's only ingest entry: a single sample arrives as a batch of one,
// so the batch counters and histogram count it, and a monitor refusal of
// it reads "batch sample 0 (t=…): …" (a *ServiceError keeps its bare
// message on the wire). A batch is all-or-nothing on the wire: the first
// rejected sample fails the whole batch and none of the estimates are sent
// — but the samples before it were already recorded, exactly as if they
// had been sent individually and the connection then broke.
func (s *Service) processBatch(rb *RecordBatch, dst []Estimate) ([]Estimate, error) {
	s.batches.Add(1)
	s.batchSamples.Add(int64(len(rb.Samples)))
	if h := s.batchHist.Load(); h != nil {
		h.Observe(float64(len(rb.Samples)))
	}
	for i := range rb.Samples {
		bs := &rb.Samples[i]
		est, err := s.processSample(rb.NodeID, bs.Time, bs.PMC, bs.Measured, bs.Relayed)
		if err != nil {
			return dst, fmt.Errorf("batch sample %d (t=%g): %w", i, bs.Time, err)
		}
		dst = append(dst, est)
	}
	return dst, nil
}

// LatestEstimate is the newest restored power the service computed for
// one node — what the per-node power gauges export.
type LatestEstimate struct {
	Time            float64
	tsdb.Sample     // as stored; IPMI is NaN when the sample carried no IM reading
	FromMeasurement bool
}

// reply is the estimate the service answers for the sample l records.
func (l *LatestEstimate) reply(nodeID string) Estimate {
	return Estimate{
		NodeID: nodeID, Time: l.Time,
		PNode: l.PNode, PCPU: l.PCPU, PMEM: l.PMEM,
		FromMeasurement: l.FromMeasurement,
	}
}

// LatestEstimates snapshots the newest estimate per node (a copy; safe to
// range without holding service locks). It never waits for a node while
// holding the node table.
func (s *Service) LatestEstimates() map[string]LatestEstimate {
	s.mu.Lock()
	nodes := make(map[string]*nodeState, len(s.nodes))
	for id, n := range s.nodes {
		nodes[id] = n
	}
	s.mu.Unlock()
	out := make(map[string]LatestEstimate, len(nodes))
	for id, n := range nodes {
		n.mu.Lock()
		if n.estimated {
			out[id] = n.latest
		}
		n.mu.Unlock()
	}
	return out
}

// Stats snapshots service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	nodes := len(s.nodes)
	s.mu.Unlock()
	return Stats{
		Nodes:        nodes,
		Samples:      s.samples.Load(),
		Estimates:    s.estimates.Load(),
		Measured:     s.measured.Load(),
		Relayed:      s.relayed.Load(),
		ConnStats:    s.srv.Stats(),
		Batches:      s.batches.Load(),
		BatchSamples: s.batchSamples.Load(),
		Store:        s.store.Stats(),
	}
}
