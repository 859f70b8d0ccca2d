package cluster

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"highrpm/internal/core"
)

// Mode reports how a ResilientAgent is currently serving estimates.
type Mode int32

const (
	// ModeConnected: estimates come from the service (the normal path).
	ModeConnected Mode = iota
	// ModeDegraded: the service is unreachable; estimates come from the
	// agent's local model snapshot and samples are buffered for replay
	// (§6.4.6's far-away / congested-network fallback).
	ModeDegraded
)

// String names the mode for logs.
func (m Mode) String() string {
	if m == ModeDegraded {
		return "degraded"
	}
	return "connected"
}

// ErrAgentClosed reports use of a ResilientAgent after Close.
var ErrAgentClosed = errors.New("cluster: resilient agent closed")

// AgentOptions tunes ResilientAgent's reconnect and fallback behaviour.
type AgentOptions struct {
	// DialTimeout bounds each TCP dial plus Hello/model handshake.
	DialTimeout time.Duration
	// RequestTimeout bounds one request round trip (0: unbounded — not
	// recommended; a blackholed service then blocks Send forever).
	RequestTimeout time.Duration
	// BackoffMin/BackoffMax bound the jittered exponential delay between
	// recovery attempts: the first retry waits BackoffMin, doubling per
	// consecutive failure up to BackoffMax.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// SendRetries is how many network attempts one Send makes (first try
	// included) before falling back to the local model.
	SendRetries int
	// FailThreshold is how many consecutive Sends must fail before the
	// agent flips to ModeDegraded and stops trying the network on every
	// sample (it then only probes on the backoff schedule).
	FailThreshold int
	// BufferLimit caps the samples buffered while degraded; beyond it the
	// oldest sample is dropped (and counted) so memory stays bounded.
	BufferLimit int
}

// DefaultAgentOptions returns production defaults for 1 Sa/s telemetry.
func DefaultAgentOptions() AgentOptions {
	return AgentOptions{
		DialTimeout:    2 * time.Second,
		RequestTimeout: 5 * time.Second,
		BackoffMin:     100 * time.Millisecond,
		BackoffMax:     30 * time.Second,
		SendRetries:    2,
		FailThreshold:  3,
		BufferLimit:    4096,
	}
}

// backoffJitter spreads each backoff delay by ±20 % so a cluster of agents
// does not reconnect in lockstep.
const backoffJitter = 0.2

// jitterSource seeds an agent's jitter RNG from the service address and
// its node ID: agents of different nodes draw different delays, while one
// node redialling the same service repeats its own sequence.
func jitterSource(addr, nodeID string) rand.Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(addr + "\x00" + nodeID))
	return rand.NewSource(int64(h.Sum64()))
}

// AgentCounters snapshots a ResilientAgent's activity.
type AgentCounters struct {
	// Sent counts samples acknowledged by the service live (replays not
	// included).
	Sent int64
	// LocalServed counts estimates answered from the local snapshot.
	LocalServed int64
	// Buffered counts samples queued for replay (cumulative).
	Buffered int64
	// Replayed counts buffered samples later acknowledged by the service.
	Replayed int64
	// Dropped counts buffered samples lost to the BufferLimit cap.
	Dropped int64
	// Reconnects counts successful re-dials (each includes a fresh Hello
	// and a model resync).
	Reconnects int64
	// DialFailures counts failed dial/handshake attempts.
	DialFailures int64
	// SendFailures counts network round trips that errored or timed out.
	SendFailures int64
	// Degradations counts connected→degraded flips.
	Degradations int64
	// ModelSyncs counts model snapshot fetches (1 from the initial
	// connect, +1 per reconnect).
	ModelSyncs int64
}

// ResilientAgent wraps Agent with reconnection, bounded retries, request
// deadlines, and the §6.4.6 degraded-mode fallback: after FailThreshold
// consecutive failures it serves estimates from its last fetched model
// snapshot, buffers up to BufferLimit samples, and replays them in order
// (then resyncs the snapshot) once the service is reachable again.
//
// Degraded estimates are bit-for-bit what a fresh core.Monitor over the
// snapshot model would produce for the episode's samples — each degraded
// episode starts a fresh local monitor, so estimates cold-start from the
// snapshot's trend midpoint until an IM reading arrives, exactly like a
// node that never had the service.
//
// It carries telemetry only; reads (Stats, Query, FetchModel) have no
// local fallback and go over a plain Agent. Like Agent it is not safe for
// concurrent use; run one per node goroutine. Send never returns transport
// errors — only *ServiceError (the service rejected the sample) or a
// local-inference error escapes.
type ResilientAgent struct {
	addr   string
	nodeID string
	opts   AgentOptions

	agent    *Agent        // nil while disconnected
	model    *core.HighRPM // last fetched snapshot
	models   *ModelCache   // shared decode table (nil: decode privately)
	localMon *core.Monitor // per-episode fallback monitor (nil between episodes)
	buffer   []BatchSample // degraded samples awaiting replay, oldest first
	one      [1]Estimate   // Send's reply scratch
	mode     Mode
	closed   bool

	consecFails int // consecutive Sends that fell back locally
	backoff     time.Duration
	nextProbe   time.Time // earliest next recovery attempt
	rng         *rand.Rand

	counters AgentCounters
}

// ModelCache interns decoded model snapshots by the SHA-256 of their
// bytes, for a process that pools many ResilientAgents against services
// sharing one model (the fleet router holds a hundred-odd). Every agent
// still fetches its own snapshot on every connect — resync semantics and
// ModelSyncs are unchanged — but identical bytes decode once and the agents
// share the result, which is safe because a Monitor only reads its model.
// The zero value is ready to use.
type ModelCache struct {
	mu     sync.Mutex
	models map[[sha256.Size]byte]*core.HighRPM
}

// maxCachedModels bounds the table. A fleet serves one model per training
// run, so more than a few distinct snapshots means old ones are dead
// weight; dropping them only costs a repeat decode.
const maxCachedModels = 4

// decode returns the model for one snapshot's bytes, decoding on first
// sight. A nil cache decodes privately.
func (c *ModelCache) decode(data []byte) (*core.HighRPM, error) {
	if c == nil {
		return core.Unmarshal(data)
	}
	key := sha256.Sum256(data)
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.models[key]; ok {
		return m, nil
	}
	m, err := core.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	if c.models == nil || len(c.models) >= maxCachedModels {
		c.models = map[[sha256.Size]byte]*core.HighRPM{}
	}
	c.models[key] = m
	return m, nil
}

// DialResilient connects a ResilientAgent to the service: it dials,
// registers the node, and fetches the model snapshot the degraded-mode
// fallback will run on, interned in models (nil: a private decode). The
// initial connect must succeed — without a snapshot there is nothing to
// degrade to. Every dial offers the binary codec, which carries all of the
// agent's telemetry, and a service whose Hello settles on anything else is
// refused.
func DialResilient(addr, nodeID string, opts AgentOptions, models *ModelCache) (*ResilientAgent, error) {
	if opts.SendRetries < 1 {
		opts.SendRetries = 1
	}
	if opts.FailThreshold < 1 {
		opts.FailThreshold = 1
	}
	if opts.BufferLimit < 1 {
		opts.BufferLimit = 1
	}
	if opts.BackoffMin <= 0 {
		opts.BackoffMin = time.Millisecond
	}
	if opts.BackoffMax < opts.BackoffMin {
		opts.BackoffMax = opts.BackoffMin
	}
	ra := &ResilientAgent{
		addr:    addr,
		nodeID:  nodeID,
		opts:    opts,
		backoff: opts.BackoffMin,
		rng:     rand.New(jitterSource(addr, nodeID)),
		models:  models,
	}
	agent, model, err := ra.connect()
	if err != nil {
		return nil, err
	}
	ra.agent, ra.model = agent, model
	ra.counters.ModelSyncs++
	return ra, nil
}

// connect dials, says Hello, and fetches a model snapshot. The whole
// handshake is bounded by DialTimeout: once for dial+Hello, once more for
// the model fetch (models are bigger than samples, so RequestTimeout would
// be too tight a bound on a slow link).
func (ra *ResilientAgent) connect() (*Agent, *core.HighRPM, error) {
	agent, err := DialTimeout(ra.addr, ra.nodeID, ra.opts.DialTimeout)
	if err != nil {
		return nil, nil, err
	}
	if !agent.binary {
		_ = agent.Close()
		return nil, nil, fmt.Errorf("cluster: service %s does not speak the binary codec", ra.addr)
	}
	if ra.opts.DialTimeout > 0 {
		agent.SetDeadline(time.Now().Add(ra.opts.DialTimeout))
	}
	data, err := agent.FetchModel()
	agent.SetDeadline(time.Time{})
	var model *core.HighRPM
	if err == nil {
		model, err = ra.models.decode(data)
	}
	if err != nil {
		_ = agent.Close()
		return nil, nil, fmt.Errorf("cluster: model snapshot: %w", err)
	}
	return agent, model, nil
}

// NodeID returns the registered node identity.
func (ra *ResilientAgent) NodeID() string { return ra.nodeID }

// Mode reports whether estimates currently come from the service or from
// the local snapshot.
func (ra *ResilientAgent) Mode() Mode { return ra.mode }

// Counters snapshots the agent's activity counters.
func (ra *ResilientAgent) Counters() AgentCounters { return ra.counters }

// Model returns the last fetched model snapshot (never nil after a
// successful DialResilient).
func (ra *ResilientAgent) Model() *core.HighRPM { return ra.model }

// Pending reports how many buffered samples still await replay.
func (ra *ResilientAgent) Pending() int { return len(ra.buffer) }

// live runs one telemetry request through the resilience policy: up to
// SendRetries attempts, each on a connected, fully-replayed link under the
// request deadline. A degraded agent has no connection, so it skips the
// network until redial's probe is due. It reports whether the service
// answered — with a reply (nil error) or with a rejection over a healthy
// link (the *ServiceError, returned as-is). Not answered means no link was
// ready or every attempt hit a transport failure, which dropped the
// connection and scheduled the next probe; the caller then serves the
// request from the local snapshot.
func (ra *ResilientAgent) live(call func(*Agent) error) (answered bool, err error) {
	for attempt := 0; attempt < ra.opts.SendRetries; attempt++ {
		if !ra.ensureLive() {
			break
		}
		err := ra.bounded(call)
		if err == nil || isRejection(err) {
			ra.onHealthy()
			return true, err
		}
		ra.failConn()
	}
	return false, nil
}

// isRejection reports whether err is the service's refusal over a healthy
// link. The error target lives here, so only a failed call pays for it.
func isRejection(err error) bool {
	var se *ServiceError
	return errors.As(err, &se)
}

// bounded runs call on the current connection under RequestTimeout.
func (ra *ResilientAgent) bounded(call func(*Agent) error) error {
	if ra.opts.RequestTimeout > 0 {
		ra.agent.SetDeadline(time.Now().Add(ra.opts.RequestTimeout))
		defer ra.agent.SetDeadline(time.Time{})
	}
	return call(ra.agent)
}

// Send streams one second of telemetry: SendSamples with a batch of one. It
// returns the service's estimate when the network cooperates, and otherwise
// a local-snapshot estimate with Estimate.Local set — transport failures
// are absorbed, not returned. A *ServiceError (the service rejected the
// sample over a healthy connection) is returned as-is. pmc and measured are
// borrowed only for the call, degraded or not.
func (ra *ResilientAgent) Send(t float64, pmc []float64, measured *float64) (Estimate, error) {
	one := [1]BatchSample{{Time: t, PMC: pmc, Measured: measured}}
	ests, err := ra.SendSamples(one[:], ra.one[:0])
	if err != nil {
		return Estimate{}, err
	}
	return ests[0], nil
}

// SendSamples delivers a prepared batch of samples in order in one
// RecordBatch round trip, through the resilience policy: the caller's
// samples go to the service as they are, and when no service answers each
// is served from the local snapshot and joins the replay buffer in order
// (serveLocal copies what it buffers), so in-order replay holds across
// degraded episodes. An empty batch makes no round trip. A *ServiceError
// (the service rejected the batch) drops it and is returned as-is.
//
// A sample's Relayed estimate, the one another service already computed
// for it, travels with it: the service records it and skips its own
// inference, and a degraded agent buffers it with the sample, so the later
// replay spares the service the inference too. The fleet router forwards
// every front-end request to its backend shards this way.
//
// The estimates, one per sample in order, are appended to dst and the grown
// slice returned, so a caller that hands the same buffer back as dst[:0]
// allocates nothing per batch. A rejected batch appends none.
func (ra *ResilientAgent) SendSamples(samples []BatchSample, dst []Estimate) ([]Estimate, error) {
	if ra.closed {
		return dst, ErrAgentClosed
	}
	if len(samples) == 0 {
		return dst, nil
	}
	ests := dst
	answered, err := ra.live(func(a *Agent) (err error) {
		ests, err = a.sendBatch(samples, dst)
		return err
	})
	if answered {
		ra.counters.Sent += int64(len(ests) - len(dst))
		return ests, err
	}
	for i := range samples {
		est, err := ra.serveLocal(samples[i])
		if err != nil {
			return ests, err
		}
		ests = append(ests, est)
	}
	return ests, nil
}

// ensureLive reports whether a connected, fully-replayed link is ready for
// a live send. It redials (respecting the backoff schedule) and replays
// the degraded-mode buffer as needed.
func (ra *ResilientAgent) ensureLive() bool {
	if ra.agent == nil && !ra.redial() {
		return false
	}
	return ra.replay()
}

// redial attempts one reconnect if the backoff schedule allows it.
func (ra *ResilientAgent) redial() bool {
	if time.Now().Before(ra.nextProbe) {
		return false
	}
	agent, model, err := ra.connect()
	if err != nil {
		ra.counters.DialFailures++
		ra.failProbe()
		return false
	}
	ra.agent, ra.model = agent, model
	ra.counters.Reconnects++
	ra.counters.ModelSyncs++
	return true
}

// replay drains the degraded-mode buffer in order, each sample a batch of
// one, so a rejection drops only that sample. Every acknowledged sample
// leaves the buffer for good; a failure keeps the rest for the next attempt.
func (ra *ResilientAgent) replay() bool {
	for len(ra.buffer) > 0 {
		err := ra.bounded(func(a *Agent) (err error) {
			_, err = a.sendBatch(ra.buffer[:1], ra.one[:0])
			return err
		})
		switch {
		case err == nil:
			ra.counters.Replayed++
		case isRejection(err):
			// The service rejected a buffered sample (e.g. recorded with a
			// stale feature layout). It will never be accepted; drop it
			// rather than wedge the replay.
			ra.counters.Dropped++
		default:
			ra.failConn()
			return false
		}
		ra.dropOldest()
	}
	return true
}

// dropOldest removes the oldest buffered sample. Its slot is zeroed and an
// emptied buffer let go, so the backing array keeps no copy of a sample
// that has left the buffer alive.
func (ra *ResilientAgent) dropOldest() {
	ra.buffer[0] = BatchSample{}
	ra.buffer = ra.buffer[1:]
	if len(ra.buffer) == 0 {
		ra.buffer = nil
	}
}

// serveLocal answers one sample from the model snapshot and buffers it for
// replay. It also advances the failure accounting that flips the agent to
// ModeDegraded. The buffered sample is a private copy: bs.PMC, bs.Measured
// and bs.Relayed belong to the caller, who may overwrite them the moment
// Send returns (a serve loop forwarding its framer scratch does). Only this
// degraded path copies; a live send stays zero-copy.
func (ra *ResilientAgent) serveLocal(bs BatchSample) (Estimate, error) {
	ra.consecFails++
	if ra.mode == ModeConnected && ra.consecFails >= ra.opts.FailThreshold {
		ra.mode = ModeDegraded
		ra.counters.Degradations++
	}
	if ra.localMon == nil {
		ra.localMon = core.NewMonitor(ra.model)
	}
	est, err := ra.localMon.Push(bs.PMC, bs.Measured)
	if err != nil {
		return Estimate{}, err
	}
	if len(ra.buffer) >= ra.opts.BufferLimit {
		ra.dropOldest()
		ra.counters.Dropped++
	}
	bs.PMC = append([]float64(nil), bs.PMC...)
	if bs.Measured != nil {
		m := *bs.Measured
		bs.Measured = &m
	}
	if bs.Relayed != nil {
		rel := *bs.Relayed
		bs.Relayed = &rel
	}
	ra.buffer = append(ra.buffer, bs)
	ra.counters.Buffered++
	ra.counters.LocalServed++
	return Estimate{
		NodeID: ra.nodeID, Time: bs.Time,
		PNode: est.PNode, PCPU: est.PCPU, PMEM: est.PMEM,
		FromMeasurement: est.FromMeasurement,
		Local:           true,
	}, nil
}

// onHealthy records a successful round trip: failure accounting resets,
// the backoff collapses, and a degraded episode (its buffer was already
// replayed) ends.
func (ra *ResilientAgent) onHealthy() {
	ra.consecFails = 0
	ra.backoff = ra.opts.BackoffMin
	ra.nextProbe = time.Time{}
	ra.localMon = nil
	if ra.mode == ModeDegraded {
		ra.mode = ModeConnected
	}
}

// failProbe schedules the next recovery attempt with jittered exponential
// backoff.
func (ra *ResilientAgent) failProbe() {
	f := 1 + backoffJitter*(2*ra.rng.Float64()-1)
	ra.nextProbe = time.Now().Add(time.Duration(float64(ra.backoff) * f))
	ra.backoff *= 2
	if ra.backoff > ra.opts.BackoffMax {
		ra.backoff = ra.opts.BackoffMax
	}
}

// failConn accounts one transport failure: the connection is discarded and
// the next recovery attempt scheduled.
func (ra *ResilientAgent) failConn() {
	ra.counters.SendFailures++
	ra.failProbe()
	_ = ra.agent.Close()
	ra.agent = nil
}

// Close terminates the connection. Buffered samples not yet replayed are
// lost; check Pending first if that matters.
func (ra *ResilientAgent) Close() error {
	if ra.closed {
		return nil
	}
	ra.closed = true
	if ra.agent != nil {
		return ra.agent.Close()
	}
	return nil
}
