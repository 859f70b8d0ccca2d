package cluster

import (
	"bufio"
	"errors"
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
	// settled on the binary codec.
	f      *binFramer
	binary bool
	batch  batcher
	// series is the reply queryNodes hands its caller, reused per reply.
	series SeriesReply
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
	hello := Hello{NodeID: nodeID}
	if codec == CodecBinary {
		hello.Codecs = []string{CodecBinary}
	}
	var reply Hello
	if err := a.call(KindHello, hello, &reply); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("cluster: hello: %w", err)
	}
	a.binary = reply.Codec == CodecBinary
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
// request just framed and read its reply.
func (a *Agent) roundTrip(want MsgKind) (wireMsg, error) {
	if err := a.f.w.Flush(); err != nil {
		return wireMsg{}, err
	}
	return a.readReply(want)
}

// readReply reads one reply through the frame reader the server uses and
// hands it back if it is of the wanted kind. An error reply — native binary
// or a JSON envelope, wrapped or not — becomes a *ServiceError (the
// connection stays usable); any other kind is a protocol error.
func (a *Agent) readReply(want MsgKind) (wireMsg, error) {
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
// elsewhere, attached (nil: none).
func (a *Agent) send(t float64, pmc []float64, measured *float64, rel *RelayedEstimate) (Estimate, error) {
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
	ests, err := a.sendBatch(a.batch.wireSamples())
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
	if err := a.writeQuery(req); err != nil {
		return SeriesBody{}, err
	}
	rep, err := a.roundTrip(KindSeries)
	if err != nil {
		return SeriesBody{}, err
	}
	series := SeriesReply{f: a.f, msg: rep}
	return series.Body()
}

// writeQuery frames one query in the connection's codec.
func (a *Agent) writeQuery(req QueryRequest) error {
	if a.binary {
		return a.f.writeQuery(req)
	}
	return WriteMsg(a.f.w, KindQuery, req)
}

// queryWindow bounds the request bytes queryNodes keeps in flight on one
// connection. A window is written whole before its first reply is read, so
// it must fit the buffers between the two ends while the peer sits in a
// reply write nobody is reading yet: it is half the 4 KiB bufio buffer on
// either side — one write here, one read into the serve loop's reader, even
// over an unbuffered pipe — and far below any kernel socket buffer. Some
// fifty queries fit; a request larger than the window travels alone, which
// is the plain request/reply protocol.
const queryWindow = 2 << 10

// queryFrameLen is the size of q's request frame on this connection. A JSON
// frame's is not known before it is marshalled, so it counts as a whole
// window: JSON connections run one request at a time.
func (a *Agent) queryFrameLen(q *QueryRequest) int {
	if !a.binary {
		return queryWindow
	}
	return 4 + 1 + 2 + len(q.NodeID) + 2 + len(q.Channel) + 8 + 8 + 4
}

// queryNodes asks q of every node in nodes (q.NodeID is overwritten) over
// this one connection, pipelined: the requests of a window go out back to
// back in one flush and the replies are read in order — every cluster.Server
// answers a connection's frames sequentially, so reply i belongs to node i
// and a peer sees nothing it would not see from Query called in a loop.
// each receives every outcome in order: the undecoded reply (valid until
// each returns), or the rejection when the service answered that node with
// an error. timeout, when positive, is re-armed before every window and
// every reply, so it bounds one reply as it does for Query.
//
// done counts the nodes each was called for and returned nil. A non-nil
// error — the transport's, a protocol violation, or each's own, which must
// mean the reply was malformed — ends the group at node done and leaves the
// connection unusable: requests past it may be in flight.
func (a *Agent) queryNodes(q QueryRequest, nodes []string, timeout time.Duration, each func(i int, rep *SeriesReply, rejected *ServiceError) error) (done int, err error) {
	arm := func() {
		if timeout > 0 {
			a.setDeadline(time.Now().Add(timeout))
		}
	}
	for sent := 0; done < len(nodes); {
		arm()
		for inFlight := 0; sent < len(nodes); sent++ {
			q.NodeID = nodes[sent]
			n := a.queryFrameLen(&q)
			if inFlight > 0 && inFlight+n > queryWindow {
				break
			}
			if err := a.writeQuery(q); err != nil {
				return done, err
			}
			inFlight += n
		}
		if err := a.f.w.Flush(); err != nil {
			return done, err
		}
		for ; done < sent; done++ {
			arm()
			msg, err := a.readReply(KindSeries)
			if err == nil {
				a.series = SeriesReply{f: a.f, msg: msg}
				err = each(done, &a.series, nil)
			} else if rejected := (*ServiceError)(nil); errors.As(err, &rejected) {
				err = each(done, nil, rejected)
			}
			if err != nil {
				return done, err
			}
		}
	}
	return done, nil
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
