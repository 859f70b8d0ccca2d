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
	r      *bufio.Reader
	w      *bufio.Writer
	// bin is non-nil once the Hello handshake settled on the binary codec;
	// it owns the connection's encode/decode scratch.
	bin   *binFramer
	batch batcher
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
	a := &Agent{nodeID: nodeID, conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
		defer conn.SetDeadline(time.Time{})
	}
	hello := Hello{NodeID: nodeID}
	if codec == CodecBinary {
		hello.Codecs = []string{CodecBinary}
	}
	if err := WriteMsg(a.w, KindHello, hello); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if err := a.w.Flush(); err != nil {
		_ = conn.Close()
		return nil, err
	}
	env, err := ReadMsg(a.r)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("cluster: hello reply: %w", err)
	}
	if env.Kind != KindHello {
		_ = conn.Close()
		return nil, fmt.Errorf("cluster: unexpected hello reply kind %q", env.Kind)
	}
	var reply Hello
	if err := DecodeBody(env, &reply); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if reply.Codec == CodecBinary {
		a.bin = newBinFramer(a.r, a.w, DefaultMaxFrame)
	}
	return a, nil
}

// NodeID returns the registered node identity.
func (a *Agent) NodeID() string { return a.nodeID }

// Codec reports the wire codec the Hello handshake settled on.
func (a *Agent) Codec() string {
	if a.bin != nil {
		return CodecBinary
	}
	return CodecJSON
}

// setDeadline bounds the next request round trip (zero time clears it).
func (a *Agent) setDeadline(t time.Time) { a.conn.SetDeadline(t) }

// writeEnv sends one envelope in the connection's codec: natively in JSON
// mode, wrapped in a binKindJSON frame in binary mode. It carries the
// message kinds without a hot-path binary layout (stats, model).
func (a *Agent) writeEnv(kind MsgKind, body any) error {
	if a.bin != nil {
		return a.bin.writeJSONEnvelope(kind, body)
	}
	return WriteMsg(a.w, kind, body)
}

// readEnv reads one envelope in the connection's codec. In binary mode a
// native error frame is also understood (the service answers errors in
// binary even for JSON-wrapped requests).
func (a *Agent) readEnv() (Envelope, error) {
	if a.bin == nil {
		return ReadMsg(a.r)
	}
	kind, payload, err := a.bin.readFrame()
	if err != nil {
		return Envelope{}, err
	}
	switch kind {
	case binKindJSON:
		return readJSONEnvelope(payload)
	case binKindError:
		msg, err := a.bin.readError(payload)
		if err != nil {
			return Envelope{}, err
		}
		return Envelope{}, &ServiceError{Message: msg}
	default:
		return Envelope{}, fmt.Errorf("cluster: unexpected binary frame kind %d", kind)
	}
}

// Send streams one second of telemetry and returns the service's estimate.
// measured carries this second's IPMI reading if one arrived (nil usually).
// A *ServiceError return means the service rejected the sample but the
// connection is still healthy.
func (a *Agent) Send(t float64, pmc []float64, measured *float64) (Estimate, error) {
	if a.bin != nil {
		return a.sendBinary(t, pmc, measured)
	}
	smp := Sample{NodeID: a.nodeID, Time: t, PMC: pmc, Measured: measured}
	if err := WriteMsg(a.w, KindSample, smp); err != nil {
		return Estimate{}, err
	}
	if err := a.w.Flush(); err != nil {
		return Estimate{}, err
	}
	env, err := ReadMsg(a.r)
	if err != nil {
		return Estimate{}, err
	}
	switch env.Kind {
	case KindEstimate:
		var est Estimate
		if err := DecodeBody(env, &est); err != nil {
			return Estimate{}, err
		}
		return est, nil
	case KindError:
		var eb ErrorBody
		if err := DecodeBody(env, &eb); err != nil {
			return Estimate{}, err
		}
		return Estimate{}, &ServiceError{Message: eb.Message}
	default:
		return Estimate{}, fmt.Errorf("cluster: unexpected reply kind %q", env.Kind)
	}
}

// sendBinary is the zero-allocation sample round trip: encode into the
// framer's write scratch, decode the reply from its read scratch, intern
// the node ID. Steady state allocates nothing.
func (a *Agent) sendBinary(t float64, pmc []float64, measured *float64) (Estimate, error) {
	f := a.bin
	if err := f.writeSample(a.nodeID, t, pmc, measured); err != nil {
		return Estimate{}, err
	}
	if err := a.w.Flush(); err != nil {
		return Estimate{}, err
	}
	kind, payload, err := f.readFrame()
	if err != nil {
		return Estimate{}, err
	}
	switch kind {
	case binKindEstimate:
		return f.readEstimate(payload)
	case binKindError:
		msg, err := f.readError(payload)
		if err != nil {
			return Estimate{}, err
		}
		return Estimate{}, &ServiceError{Message: msg}
	default:
		return Estimate{}, fmt.Errorf("cluster: unexpected binary reply kind %d", kind)
	}
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
	if !a.batch.opts.enabled() {
		est, err := a.Send(t, pmc, measured)
		if err != nil {
			return nil, err
		}
		return []Estimate{est}, nil
	}
	a.batch.add(t, pmc, measured)
	if a.batch.full() || a.batch.due() {
		return a.Flush()
	}
	return nil, nil
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
	ests, err := a.sendBatchSamples(a.batch.wireSamples())
	a.batch.reset()
	return ests, err
}

// sendBatchSamples performs one RecordBatch round trip in the connection's
// codec. ResilientAgent calls it directly for its own batch replay.
func (a *Agent) sendBatchSamples(samples []BatchSample) ([]Estimate, error) {
	if a.bin != nil {
		f := a.bin
		if err := f.writeRecordBatch(a.nodeID, samples); err != nil {
			return nil, err
		}
		if err := a.w.Flush(); err != nil {
			return nil, err
		}
		kind, payload, err := f.readFrame()
		if err != nil {
			return nil, err
		}
		switch kind {
		case binKindEstimateBatch:
			return f.readEstimateBatch(payload)
		case binKindError:
			msg, err := f.readError(payload)
			if err != nil {
				return nil, err
			}
			return nil, &ServiceError{Message: msg}
		default:
			return nil, fmt.Errorf("cluster: unexpected binary reply kind %d", kind)
		}
	}
	rb := RecordBatch{NodeID: a.nodeID, Samples: samples}
	if err := WriteMsg(a.w, KindRecordBatch, rb); err != nil {
		return nil, err
	}
	if err := a.w.Flush(); err != nil {
		return nil, err
	}
	env, err := ReadMsg(a.r)
	if err != nil {
		return nil, err
	}
	switch env.Kind {
	case KindEstimateBatch:
		var eb EstimateBatch
		if err := DecodeBody(env, &eb); err != nil {
			return nil, err
		}
		return eb.Estimates, nil
	case KindError:
		var eb ErrorBody
		if err := DecodeBody(env, &eb); err != nil {
			return nil, err
		}
		return nil, &ServiceError{Message: eb.Message}
	default:
		return nil, fmt.Errorf("cluster: unexpected reply kind %q", env.Kind)
	}
}

// Stats fetches service statistics.
func (a *Agent) Stats() (Stats, error) {
	if err := a.writeEnv(KindStats, struct{}{}); err != nil {
		return Stats{}, err
	}
	if err := a.w.Flush(); err != nil {
		return Stats{}, err
	}
	env, err := a.readEnv()
	if err != nil {
		return Stats{}, err
	}
	if env.Kind != KindStats {
		return Stats{}, fmt.Errorf("cluster: unexpected stats reply kind %q", env.Kind)
	}
	var st Stats
	if err := DecodeBody(env, &st); err != nil {
		return Stats{}, err
	}
	return st, nil
}

// Query fetches stored power history from the service: one node's series
// when req.NodeID is set, the cluster-wide aggregate otherwise. NaN gaps
// (sparse IPMI seconds, all-NaN rollup buckets) arrive as NaN.
func (a *Agent) Query(req QueryRequest) (SeriesBody, error) {
	if a.bin != nil {
		return a.queryBinary(req)
	}
	if err := WriteMsg(a.w, KindQuery, req); err != nil {
		return SeriesBody{}, err
	}
	if err := a.w.Flush(); err != nil {
		return SeriesBody{}, err
	}
	env, err := ReadMsg(a.r)
	if err != nil {
		return SeriesBody{}, err
	}
	switch env.Kind {
	case KindSeries:
		var body SeriesBody
		if err := DecodeBody(env, &body); err != nil {
			return SeriesBody{}, err
		}
		return body, nil
	case KindError:
		var eb ErrorBody
		if err := DecodeBody(env, &eb); err != nil {
			return SeriesBody{}, err
		}
		return SeriesBody{}, &ServiceError{Message: eb.Message}
	default:
		return SeriesBody{}, fmt.Errorf("cluster: unexpected reply kind %q", env.Kind)
	}
}

func (a *Agent) queryBinary(req QueryRequest) (SeriesBody, error) {
	f := a.bin
	if err := f.writeQuery(req); err != nil {
		return SeriesBody{}, err
	}
	if err := a.w.Flush(); err != nil {
		return SeriesBody{}, err
	}
	kind, payload, err := f.readFrame()
	if err != nil {
		return SeriesBody{}, err
	}
	switch kind {
	case binKindSeries:
		return f.readSeries(payload)
	case binKindError:
		msg, err := f.readError(payload)
		if err != nil {
			return SeriesBody{}, err
		}
		return SeriesBody{}, &ServiceError{Message: msg}
	default:
		return SeriesBody{}, fmt.Errorf("cluster: unexpected binary reply kind %d", kind)
	}
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
	if err := a.writeEnv(KindModel, struct{}{}); err != nil {
		return nil, err
	}
	if err := a.w.Flush(); err != nil {
		return nil, err
	}
	env, err := a.readEnv()
	if err != nil {
		return nil, err
	}
	switch env.Kind {
	case KindModel:
		var mb ModelBody
		if err := DecodeBody(env, &mb); err != nil {
			return nil, err
		}
		return mb.Data, nil
	case KindError:
		var eb ErrorBody
		if err := DecodeBody(env, &eb); err != nil {
			return nil, err
		}
		return nil, &ServiceError{Message: eb.Message}
	default:
		return nil, fmt.Errorf("cluster: unexpected reply kind %q", env.Kind)
	}
}

// Close terminates the connection. Pending batched samples are dropped;
// call Flush first if they matter.
func (a *Agent) Close() error { return a.conn.Close() }
