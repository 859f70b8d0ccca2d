package cluster

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"highrpm/internal/core"
)

// Agent is a compute-node client of the HighRPM service. It is not safe
// for concurrent use; run one agent per node goroutine. For automatic
// reconnects and the §6.4.6 degraded-mode fallback, wrap the connection in
// a ResilientAgent instead.
//
// By default Dial offers the binary wire codec and falls back to JSON when
// the service predates it; DialCodec pins the choice. Codec affects
// framing only — estimates, stats and series are identical either way.
type Agent struct {
	nodeID string
	conn   net.Conn
	// f frames every message on the connection, JSON and binary alike, and
	// owns the encode/decode scratch; binary is set once the Hello handshake
	// settled on the binary codec, relay once the service echoed that it
	// takes relayed estimates.
	f      *binFramer
	binary bool
	relay  bool
	batch  batcher
}

// Dial connects an agent to the service and registers the node, preferring
// the binary codec.
func Dial(addr, nodeID string) (*Agent, error) {
	return DialTimeout(addr, nodeID, 0)
}

// DialTimeout connects like Dial but bounds both the TCP dial and the
// Hello handshake by timeout (0 disables the bound, matching Dial).
func DialTimeout(addr, nodeID string, timeout time.Duration) (*Agent, error) {
	return DialCodec(addr, nodeID, CodecBinary, timeout)
}

// DialCodec connects with an explicit codec preference: CodecBinary offers
// the binary framing (the service may still answer JSON if it predates
// it), CodecJSON ("" too) skips the offer and speaks JSON outright.
func DialCodec(addr, nodeID, codec string, timeout time.Duration) (*Agent, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	a := &Agent{nodeID: nodeID, conn: conn, f: newBinFramer(bufio.NewReader(conn), bufio.NewWriter(conn), DefaultMaxFrame)}
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
		defer conn.SetDeadline(time.Time{})
	}
	hello := Hello{NodeID: nodeID, Relay: true}
	if codec == CodecBinary {
		hello.Codecs = []string{CodecBinary}
	}
	var reply Hello
	if err := a.call(KindHello, hello, &reply); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("cluster: hello: %w", err)
	}
	a.binary, a.relay = reply.Codec == CodecBinary, reply.Relay
	return a, nil
}

// NodeID returns the registered node identity.
func (a *Agent) NodeID() string { return a.nodeID }

// Codec reports the wire codec the Hello handshake settled on.
func (a *Agent) Codec() string {
	if a.binary {
		return CodecBinary
	}
	return CodecJSON
}

// setDeadline bounds the next request round trip (zero time clears it).
func (a *Agent) setDeadline(t time.Time) { a.conn.SetDeadline(t) }

// roundTrip is the one request/reply exchange every verb runs: flush the
// request just framed, read one reply through the frame reader the server
// uses, and hand it back if it is of the wanted kind. An error reply —
// native binary or a JSON envelope, wrapped or not — becomes a
// *ServiceError (the connection stays usable); any other kind is a
// protocol error.
func (a *Agent) roundTrip(want MsgKind) (wireMsg, error) {
	if err := a.f.w.Flush(); err != nil {
		return wireMsg{}, err
	}
	rep, err := a.f.readMsg(a.binary)
	if err != nil {
		return wireMsg{}, err
	}
	switch rep.kind {
	case want:
		return rep, nil
	case KindError:
		var eb ErrorBody
		if rep.enc == encBinary {
			eb.Message, err = a.f.readError(rep.payload)
		} else {
			err = DecodeBody(rep.env, &eb)
		}
		if err != nil {
			return wireMsg{}, err
		}
		return wireMsg{}, &ServiceError{Message: eb.Message}
	default:
		return wireMsg{}, fmt.Errorf("cluster: unexpected reply %s", rep.kindName())
	}
}

// call is the round trip for the kinds without a native binary layout
// (hello, stats, model): the request rides a JSON envelope — wrapped in a
// kind-0 frame on a binary connection — and the same-kind reply's JSON body
// is decoded into out.
func (a *Agent) call(kind MsgKind, body, out any) error {
	enc := encJSON
	if a.binary {
		enc = encWrapped
	}
	if err := a.f.writeJSON(enc, kind, body); err != nil {
		return err
	}
	rep, err := a.roundTrip(kind)
	if err != nil {
		return err
	}
	return DecodeBody(rep.env, out)
}

// Send streams one second of telemetry and returns the service's estimate.
// measured carries this second's IPMI reading if one arrived (nil usually).
// A *ServiceError return means the service rejected the sample but the
// connection is still healthy. On a binary connection the round trip is
// allocation-free in steady state: the request is built in the framer's
// write scratch and the reply decoded from its read scratch.
func (a *Agent) Send(t float64, pmc []float64, measured *float64) (Estimate, error) {
	return a.send(t, pmc, measured, nil)
}

// send is Send with rel, the estimate already computed for this sample
// elsewhere, attached (nil: none). To a service that did not echo the Hello
// relay offer the sample goes out plain, and the service estimates it.
func (a *Agent) send(t float64, pmc []float64, measured *float64, rel *RelayedEstimate) (Estimate, error) {
	if !a.relay {
		rel = nil
	}
	var err error
	if a.binary {
		err = a.f.writeSample(a.nodeID, t, pmc, measured, rel)
	} else {
		err = WriteMsg(a.f.w, KindSample, Sample{NodeID: a.nodeID, Time: t, PMC: pmc, Measured: measured, Relayed: rel})
	}
	if err != nil {
		return Estimate{}, err
	}
	rep, err := a.roundTrip(KindEstimate)
	if err != nil {
		return Estimate{}, err
	}
	if rep.enc == encBinary {
		return a.f.readEstimate(rep.payload)
	}
	var est Estimate
	err = DecodeBody(rep.env, &est)
	return est, err
}

// SetBatching configures sample coalescing for Record. Call it once after
// dialing; MaxSamples < 2 keeps Record unbatched.
func (a *Agent) SetBatching(o BatchOptions) { a.batch.opts = o }

// Record queues one second of telemetry for batched delivery and returns
// the service's estimates when a flush happened — nil estimates with a nil
// error means the sample is pending. Without batching configured it
// behaves like Send (one estimate per call). Unlike Send, Record copies
// pmc, so callers may reuse their buffer immediately.
func (a *Agent) Record(t float64, pmc []float64, measured *float64) ([]Estimate, error) {
	return a.batch.record(a, t, pmc, measured)
}

// Flush sends the pending batch now and returns its estimates (nil when
// nothing was pending). The pending samples are consumed either way: a
// *ServiceError means the service rejected the whole batch, and a
// transport error means the connection is gone — a plain Agent cannot
// retry either (wrap in a ResilientAgent for replay).
func (a *Agent) Flush() ([]Estimate, error) {
	if a.batch.n == 0 {
		return nil, nil
	}
	ests, err := a.sendBatch(a.batch.wireSamples(a.relay))
	a.batch.reset()
	return ests, err
}

// sendBatch performs one RecordBatch round trip. ResilientAgent calls it
// directly for its own batch replay.
func (a *Agent) sendBatch(samples []BatchSample) ([]Estimate, error) {
	var err error
	if a.binary {
		err = a.f.writeRecordBatch(a.nodeID, samples)
	} else {
		err = WriteMsg(a.f.w, KindRecordBatch, RecordBatch{NodeID: a.nodeID, Samples: samples})
	}
	if err != nil {
		return nil, err
	}
	rep, err := a.roundTrip(KindEstimateBatch)
	if err != nil {
		return nil, err
	}
	if rep.enc == encBinary {
		return a.f.readEstimateBatch(rep.payload)
	}
	var eb EstimateBatch
	err = DecodeBody(rep.env, &eb)
	return eb.Estimates, err
}

// Stats fetches service statistics.
func (a *Agent) Stats() (Stats, error) {
	var st Stats
	err := a.call(KindStats, struct{}{}, &st)
	return st, err
}

// Query fetches stored power history from the service: one node's series
// when req.NodeID is set, the cluster-wide aggregate otherwise. NaN gaps
// (sparse IPMI seconds, all-NaN rollup buckets) arrive as NaN.
func (a *Agent) Query(req QueryRequest) (SeriesBody, error) {
	var err error
	if a.binary {
		err = a.f.writeQuery(req)
	} else {
		err = WriteMsg(a.f.w, KindQuery, req)
	}
	if err != nil {
		return SeriesBody{}, err
	}
	rep, err := a.roundTrip(KindSeries)
	if err != nil {
		return SeriesBody{}, err
	}
	if rep.enc == encBinary {
		return a.f.readSeries(rep.payload)
	}
	var body SeriesBody
	err = DecodeBody(rep.env, &body)
	return body, err
}

// FetchModel downloads the service's trained model for local inference —
// the fallback path when the control node is unreachable between samples.
func (a *Agent) FetchModel() (*core.HighRPM, error) {
	data, err := a.fetchModelBytes()
	if err != nil {
		return nil, err
	}
	return core.Unmarshal(data)
}

// fetchModelBytes downloads the serialised model without decoding it.
func (a *Agent) fetchModelBytes() ([]byte, error) {
	var mb ModelBody
	err := a.call(KindModel, struct{}{}, &mb)
	return mb.Data, err
}

// Close terminates the connection. Pending batched samples are dropped;
// call Flush first if they matter.
func (a *Agent) Close() error { return a.conn.Close() }
