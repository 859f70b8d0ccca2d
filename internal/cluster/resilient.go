package cluster

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"time"

	"highrpm/internal/core"
)

// ErrAgentClosed reports use of a ResilientAgent after Close.
var ErrAgentClosed = errors.New("cluster: resilient agent closed")

// AgentOptions tunes ResilientAgent's reconnect and fallback behaviour.
type AgentOptions struct {
	// DialTimeout bounds each TCP dial plus its Hello.
	DialTimeout time.Duration
	// RequestTimeout bounds one request round trip (0: unbounded — not
	// recommended; a blackholed service then blocks Send forever).
	RequestTimeout time.Duration
	// BackoffMin/BackoffMax bound the jittered exponential delay between
	// recovery attempts: the first retry waits BackoffMin, doubling per
	// consecutive failure up to BackoffMax.
	BackoffMin time.Duration
	BackoffMax time.Duration
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
	// LocalServed counts estimates answered from the local model.
	LocalServed int64
	// Buffered counts samples queued for replay (cumulative).
	Buffered int64
	// Replayed counts buffered samples later acknowledged by the service.
	Replayed int64
	// Dropped counts buffered samples lost to the BufferLimit cap.
	Dropped int64
	// Connects counts successful dials, the first included; each says
	// Hello again.
	Connects int64
	// DialFailures counts failed dial/handshake attempts, a service that
	// does not settle on the binary codec included.
	DialFailures int64
	// SendFailures counts network round trips that errored or timed out.
	SendFailures int64
	// Degradations counts degraded episodes (see Degraded).
	Degradations int64
}

// ResilientAgent wraps Agent with reconnection, request deadlines, and the
// §6.4.6 degraded-mode fallback: whenever no service answers a request (one
// network attempt per request) it serves estimates from the model it was
// built with, buffers up to BufferLimit samples, and replays them in order
// once the service is reachable again.
//
// Construction does no I/O: the first request dials, and every later dial
// follows the same backoff schedule, so a service that is down when the
// agent starts is handled exactly like one that goes down later. The
// fallback model is the caller's and never changes; a reconnect only says
// Hello again.
//
// Degraded estimates are bit-for-bit what a fresh core.Monitor over the
// model would produce for the episode's samples — each degraded episode
// starts a fresh local monitor, so estimates cold-start from the model's
// trend midpoint until an IM reading arrives, exactly like a node that
// never had the service.
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
	model    *core.HighRPM // the degraded-mode fallback, read only
	localMon *core.Monitor // the current degraded episode's monitor (nil: not degraded)
	buffer   []BatchSample // degraded samples awaiting replay, oldest first
	one      [1]Estimate   // Send's reply scratch
	closed   bool

	backoff   time.Duration
	nextProbe time.Time // earliest next recovery attempt
	rng       *rand.Rand

	counters AgentCounters
}

// NewResilientAgent returns an agent for nodeID that sends to the service
// at addr and falls back to model, which must not be nil and is only read
// (agents may share one). It does no I/O; the first request dials. Every
// dial offers the binary codec, which carries all of the agent's
// telemetry, and a service whose Hello settles on anything else counts as
// a failed dial.
func NewResilientAgent(addr, nodeID string, opts AgentOptions, model *core.HighRPM) *ResilientAgent {
	if opts.BufferLimit < 1 {
		opts.BufferLimit = 1
	}
	if opts.BackoffMin <= 0 {
		opts.BackoffMin = time.Millisecond
	}
	if opts.BackoffMax < opts.BackoffMin {
		opts.BackoffMax = opts.BackoffMin
	}
	return &ResilientAgent{
		addr:    addr,
		nodeID:  nodeID,
		opts:    opts,
		model:   model,
		backoff: opts.BackoffMin,
		rng:     rand.New(jitterSource(addr, nodeID)),
	}
}

// NodeID returns the registered node identity.
func (ra *ResilientAgent) NodeID() string { return ra.nodeID }

// Degraded reports whether the agent is in a degraded episode: a request
// was served from the local model and the service has answered none since.
func (ra *ResilientAgent) Degraded() bool { return ra.localMon != nil }

// Counters snapshots the agent's activity counters.
func (ra *ResilientAgent) Counters() AgentCounters { return ra.counters }

// Pending reports how many buffered samples still await replay.
func (ra *ResilientAgent) Pending() int { return len(ra.buffer) }

// live runs one telemetry request through the resilience policy: one
// attempt, on a connected, fully-replayed link under the request deadline.
// A degraded agent has no connection, so it skips the network until
// redial's probe is due. It reports whether the service answered — with a
// reply (nil error) or with a rejection over a healthy link (the
// *ServiceError, returned as-is). Not answered means no link was ready or
// the attempt hit a transport failure, which dropped the connection and
// scheduled the next probe; the caller then serves the request from the
// local model. A second attempt in the same call could only redial,
// and the probe just scheduled refuses that.
func (ra *ResilientAgent) live(call func(*Agent) error) (answered bool, err error) {
	if !ra.ensureLive() {
		return false, nil
	}
	if err := ra.bounded(call); err == nil || IsRejection(err) {
		ra.onHealthy()
		return true, err
	}
	ra.failConn()
	return false, nil
}

// IsRejection reports whether err carries a service's refusal over a
// healthy link: the request was not acceptable, the connection is fine.
// It inlines, and errors.As moves its target to the heap, so the nil check
// comes first: a nil error, the router's every healthy batch, allocates
// nothing.
func IsRejection(err error) bool {
	if err == nil {
		return false
	}
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
// a local-model estimate with Estimate.Local set — transport failures
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
// is served from the local model and joins the replay buffer in order
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
// a live send. It dials (the first request at once, later ones on the
// backoff schedule) and replays the degraded-mode buffer as needed.
func (ra *ResilientAgent) ensureLive() bool {
	if ra.agent == nil && !ra.redial() {
		return false
	}
	return ra.replay()
}

// redial attempts one dial and Hello, bounded by DialTimeout, if the
// backoff schedule allows it.
func (ra *ResilientAgent) redial() bool {
	if time.Now().Before(ra.nextProbe) {
		return false
	}
	agent, err := DialTimeout(ra.addr, ra.nodeID, ra.opts.DialTimeout)
	if err == nil && !agent.binary {
		// A service that does not settle on binary cannot carry the
		// agent's batches: the dial counts as failed.
		_ = agent.Close()
		agent = nil
	}
	if agent == nil {
		ra.counters.DialFailures++
		ra.failProbe()
		return false
	}
	ra.agent = agent
	ra.counters.Connects++
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
		case IsRejection(err):
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

// serveLocal answers one sample from the fallback model and buffers it for
// replay; the first such sample of an episode starts the episode's monitor.
// The buffered sample is a private copy, a new BatchSample
// built from copies: bs.PMC, bs.Measured and bs.Relayed belong to the
// caller, who may overwrite them the moment Send returns (a serve loop
// forwarding its framer scratch does), and appending bs itself would make
// escape analysis keep the caller's vector on the heap even on a live send.
// Only this degraded path copies; a live send stays zero-copy.
func (ra *ResilientAgent) serveLocal(bs BatchSample) (Estimate, error) {
	if ra.localMon == nil {
		ra.localMon = core.NewMonitor(ra.model)
		ra.counters.Degradations++
	}
	est, err := ra.localMon.Push(bs.PMC, bs.Measured)
	if err != nil {
		return Estimate{}, err
	}
	if len(ra.buffer) >= ra.opts.BufferLimit {
		ra.dropOldest()
		ra.counters.Dropped++
	}
	kept := BatchSample{Time: bs.Time, PMC: append([]float64(nil), bs.PMC...)}
	if bs.Measured != nil {
		m := *bs.Measured
		kept.Measured = &m
	}
	if bs.Relayed != nil {
		rel := *bs.Relayed
		kept.Relayed = &rel
	}
	ra.buffer = append(ra.buffer, kept)
	ra.counters.Buffered++
	ra.counters.LocalServed++
	return Estimate{
		NodeID: ra.nodeID, Time: bs.Time,
		PNode: est.PNode, PCPU: est.PCPU, PMEM: est.PMEM,
		FromMeasurement: est.FromMeasurement,
		Local:           true,
	}, nil
}

// onHealthy records a successful round trip: the backoff collapses and a
// degraded episode (its buffer was already replayed) ends.
func (ra *ResilientAgent) onHealthy() {
	ra.backoff = ra.opts.BackoffMin
	ra.nextProbe = time.Time{}
	ra.localMon = nil
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
