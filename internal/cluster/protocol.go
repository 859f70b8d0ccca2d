// Package cluster implements the deployment story of §4.1: HighRPM runs as
// a service on the control node of an HPC system and is shared with the
// compute nodes. Compute-node agents stream PMC samples and sparse IPMI
// readings to the service; the service answers with restored node power and
// the CPU/memory breakdown.
//
// The wire protocol is length-prefixed frames over TCP, stdlib-only. Every
// connection opens with a JSON Hello (this file): an agent that offers
// CodecBinary and gets it echoed switches, with the service, to the binary
// framing of binproto.go — a 1-byte kind and a fixed-layout payload,
// allocation-free for the telemetry and query traffic, and the only framing
// record batches and series travel in. On it, a single sample is a record
// batch of one. JSON carries the handshake, the single samples and
// estimates of a peer that never offers binary, and the stats and model
// envelopes, which ride a kind-0 binary frame on a binary connection. A
// JSON batch or query is answered with an error reply. The server turns a
// JSON sample into a batch of one too, so estimates and error messages are
// identical in both codecs.
//
// A connection carries one request at a time or several: a server answers
// the frames of a connection strictly in order, so a client may write a
// bounded window of queries back to back and read the replies in the same
// order (Agent.QueryNodes); nothing on the wire says so, or needs to.
package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"highrpm/internal/tsdb"
)

// MsgKind discriminates protocol messages.
type MsgKind string

// Protocol message kinds.
const (
	// KindHello registers an agent with the service.
	KindHello MsgKind = "hello"
	// KindSample carries one second of telemetry from an agent over JSON;
	// the binary codec sends a KindRecordBatch of one instead.
	KindSample MsgKind = "sample"
	// KindEstimate is the service's restored power for one JSON sample.
	KindEstimate MsgKind = "estimate"
	// KindStats requests / carries service statistics.
	KindStats MsgKind = "stats"
	// KindModel requests / carries the service's trained model so agents
	// can fall back to local inference when the control node is far away
	// or the network is congested (§6.4.6's failure scenario).
	KindModel MsgKind = "model"
	// KindQuery asks the service for a window of stored power history.
	KindQuery MsgKind = "query"
	// KindSeries carries the decoded points answering a KindQuery.
	KindSeries MsgKind = "series"
	// KindError reports a server-side failure for a request.
	KindError MsgKind = "error"
	// KindRecordBatch carries one or more seconds of telemetry in one
	// binary frame; the service answers with KindEstimateBatch (or one
	// KindError for the whole batch).
	KindRecordBatch MsgKind = "record_batch"
	// KindEstimateBatch answers a KindRecordBatch with one estimate per
	// accepted sample, in batch order.
	KindEstimateBatch MsgKind = "estimate_batch"
)

// Wire codecs an agent can offer in Hello. JSON is the baseline every peer
// speaks for the handshake and single samples; binary is the
// length-prefixed binary framing in binproto.go.
const (
	// CodecJSON is the length-prefixed JSON framing (the original protocol).
	CodecJSON = "json"
	// CodecBinary is the length-prefixed binary framing: same 4-byte length
	// prefix, then a 1-byte kind and a fixed-layout payload.
	CodecBinary = "binary"
)

// Envelope frames every message.
type Envelope struct {
	Kind MsgKind         `json:"kind"`
	Body json.RawMessage `json:"body,omitempty"`
}

// Hello registers a compute node and negotiates the wire codec. The
// handshake itself is always JSON: an agent offers codecs it speaks in
// Codecs, the service echoes its pick in Codec, and both switch after the
// reply. No version check, no second round trip.
type Hello struct {
	NodeID string `json:"node_id"`
	// Codecs is the agent's offer, most preferred first (request only).
	Codecs []string `json:"codecs,omitempty"`
	// Codec is the service's selection (reply only); "" means JSON.
	Codec string `json:"codec,omitempty"`
}

// RelayedEstimate is the estimate another service already computed for the
// very sample it rides on. A fleet router attaches the primary replica's
// answer to the copies it forwards to the followers; a service handed one
// records it as that second's estimate and only advances the node's
// monitor state (core.Monitor.Observe), so a replicated sample is inferred
// once, not once per replica. The trend channel (p_node_prime) is never
// relayed: the receiver's own Observe yields it, bit-identical.
type RelayedEstimate struct {
	PNode float64 `json:"p_node"`
	PCPU  float64 `json:"p_cpu"`
	PMEM  float64 `json:"p_mem"`
	// FromMeasurement mirrors Estimate.FromMeasurement.
	FromMeasurement bool `json:"from_measurement"`
}

// Sample is one second of telemetry from a compute node agent.
type Sample struct {
	NodeID string    `json:"node_id"`
	Time   float64   `json:"time"`
	PMC    []float64 `json:"pmc"`
	// Measured carries the IPMI reading when one is available this second;
	// nil otherwise (the common case — that is the whole problem).
	Measured *float64 `json:"measured,omitempty"`
	// Relayed, when set, is the estimate already computed for this sample
	// elsewhere; nil (every agent's own traffic) asks the service to
	// estimate.
	Relayed *RelayedEstimate `json:"relayed,omitempty"`
}

// Estimate is the service's answer for one sample.
type Estimate struct {
	NodeID string  `json:"node_id"`
	Time   float64 `json:"time"`
	PNode  float64 `json:"p_node"`
	PCPU   float64 `json:"p_cpu"`
	PMEM   float64 `json:"p_mem"`
	// FromMeasurement reports whether PNode is an IM reading (true) or a
	// DynamicTRR prediction (false).
	FromMeasurement bool `json:"from_measurement"`
	// Local reports that the estimate was computed on the agent from its
	// fetched model snapshot (the §6.4.6 degraded-mode fallback) rather
	// than by the service. The service never sets it on wire replies.
	Local bool `json:"local,omitempty"`
}

// Relayed returns the part of e that rides a replicated sample to a
// follower.
func (e *Estimate) Relayed() RelayedEstimate {
	return RelayedEstimate{PNode: e.PNode, PCPU: e.PCPU, PMEM: e.PMEM, FromMeasurement: e.FromMeasurement}
}

// BatchSample is one coalesced second inside a RecordBatch; the node ID
// lives on the batch, everything else matches Sample.
type BatchSample struct {
	Time float64   `json:"time"`
	PMC  []float64 `json:"pmc"`
	// Measured carries the second's IPMI reading when one arrived.
	Measured *float64 `json:"measured,omitempty"`
	// Relayed is Sample.Relayed for this second.
	Relayed *RelayedEstimate `json:"relayed,omitempty"`
}

// RecordBatch carries several seconds of telemetry from one node in a
// single frame (KindRecordBatch). Samples are in time order; the service
// processes them in order, so batching changes framing, not semantics.
type RecordBatch struct {
	NodeID  string        `json:"node_id"`
	Samples []BatchSample `json:"samples"`
}

// Stats summarises service activity.
type Stats struct {
	Nodes     int   `json:"nodes"`
	Samples   int64 `json:"samples"`
	Estimates int64 `json:"estimates"`
	Measured  int64 `json:"measured"`
	// Relayed counts the samples recorded from a RelayedEstimate instead of
	// an inference of the service's own: Samples − Relayed is what the
	// models actually ran on. 0 on a service no router replicates to.
	Relayed int64 `json:"relayed"`
	// ConnStats is the connection server's accounting (Server.Stats).
	ConnStats
	// Batches counts record batches and BatchSamples the samples they
	// carried (BatchSamples/Batches is the mean coalescing factor). A single
	// sample, in either codec, is a batch of one.
	Batches      int64 `json:"batches"`
	BatchSamples int64 `json:"batch_samples"`
	// Store summarises the embedded history store (series count,
	// compressed bytes, compression ratio).
	Store tsdb.Stats `json:"store"`
}

// QueryRequest asks for stored power history over [From, To] seconds.
type QueryRequest struct {
	// NodeID selects one node's history; empty aggregates the channel
	// across every node (cluster-level power).
	NodeID  string  `json:"node_id,omitempty"`
	Channel string  `json:"channel"`
	From    float64 `json:"from_s"`
	To      float64 `json:"to_s"`
	// ResolutionS is the bucket width in seconds: 1 (raw, the default
	// when 0), 10 or 60.
	ResolutionS int `json:"resolution_s,omitempty"`
}

// The series wire encoding lives in tsdb (tsdb/json.go) so the TCP
// protocol, the obs HTTP API, and the highrpm-query -json output all
// marshal one set of types and agree byte-for-byte. The aliases keep the
// cluster names every existing caller uses.
type (
	// NullFloat marshals NaN/Inf as JSON null and restores null as NaN.
	NullFloat = tsdb.NullFloat
	// SeriesPoint is one wire-encoded store point (see tsdb.Point).
	SeriesPoint = tsdb.SeriesPoint
	// SeriesBody answers a KindQuery.
	SeriesBody = tsdb.SeriesBody
)

// ErrorBody carries a server-side error message.
type ErrorBody struct {
	Message string `json:"message"`
}

// ServiceError is a KindError reply decoded by an agent: the transport is
// healthy but the service rejected the request. ResilientAgent propagates
// these to the caller instead of reconnecting.
type ServiceError struct {
	Message string
}

// Error renders the service-side message.
func (e *ServiceError) Error() string { return "cluster: service error: " + e.Message }

// ModelBody carries a serialised model (core.Marshal output).
type ModelBody struct {
	Data []byte `json:"data"`
}

// DefaultMaxFrame bounds a frame to keep a misbehaving peer from
// ballooning memory; 8 MiB accommodates model transfers with ample headroom
// while still rejecting length-prefix garbage. Service operators can lower
// the cap per deployment via ServiceOptions.MaxFrame.
const DefaultMaxFrame = 8 << 20

// ErrFrameTooLarge reports a frame whose length prefix exceeds the
// configured cap. Both sides use it: ReadMsgLimit refuses to read such a frame
// and WriteMsg refuses to emit one a default peer would reject.
var ErrFrameTooLarge = errors.New("cluster: frame exceeds size limit")

// frameChunk is the largest single allocation ReadMsgLimit makes before bytes
// actually arrive. A peer that claims a huge frame but never sends it costs
// at most one chunk, not the claimed length.
const frameChunk = 64 << 10

// WriteMsg frames and writes one message.
func WriteMsg(w io.Writer, kind MsgKind, body any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("cluster: marshal %s: %w", kind, err)
	}
	env, err := json.Marshal(Envelope{Kind: kind, Body: raw})
	if err != nil {
		return err
	}
	if len(env) > DefaultMaxFrame {
		return fmt.Errorf("%w: %s frame is %d bytes, cap %d", ErrFrameTooLarge, kind, len(env), DefaultMaxFrame)
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(env)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err = w.Write(env)
	return err
}

// ReadMsgLimit reads one framed message, rejecting frames over maxFrame
// bytes with ErrFrameTooLarge. The frame body is read incrementally so an
// adversarial length prefix cannot force a large up-front allocation.
func ReadMsgLimit(r *bufio.Reader, maxFrame int) (Envelope, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Envelope{}, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > uint32(maxFrame) {
		return Envelope{}, fmt.Errorf("%w: length prefix claims %d bytes, cap %d", ErrFrameTooLarge, n, maxFrame)
	}
	buf, err := readFrame(r, int(n))
	if err != nil {
		return Envelope{}, err
	}
	var env Envelope
	if err := json.Unmarshal(buf, &env); err != nil {
		return Envelope{}, fmt.Errorf("cluster: bad envelope: %w", err)
	}
	return env, nil
}

// readFrame reads exactly n bytes, growing the buffer only as data arrives
// (at most frameChunk ahead of what the peer has sent).
func readFrame(r io.Reader, n int) ([]byte, error) {
	return readFrameInto(r, nil, n)
}

// readFrameInto reads exactly n bytes into buf (reusing its capacity; the
// binary framer passes its per-connection scratch so steady-state reads do
// not allocate). Growth stays chunked, so a peer that claims a huge frame
// but never sends it costs at most frameChunk beyond what arrived.
func readFrameInto(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, min(n, frameChunk))
	}
	for len(buf) < n {
		take := min(n-len(buf), frameChunk)
		if cap(buf)-len(buf) < take {
			grown := make([]byte, len(buf), min(n, 2*cap(buf)+take))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(r, buf[len(buf):len(buf)+take])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeBody unmarshals an envelope body into dst.
func DecodeBody(env Envelope, dst any) error {
	if err := json.Unmarshal(env.Body, dst); err != nil {
		return fmt.Errorf("cluster: bad %s body: %w", env.Kind, err)
	}
	return nil
}
