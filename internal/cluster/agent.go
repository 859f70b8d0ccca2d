package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"
)

// Agent is a compute-node client of the HighRPM service. It is not safe
// for concurrent use; run one agent per node goroutine. For automatic
// reconnects and the §6.4.6 degraded-mode fallback, wrap the connection in
// a ResilientAgent instead.
//
// By default Dial offers the binary wire codec and falls back to JSON when
// the service predates it; DialCodec pins the choice. On a binary
// connection Send is a RecordBatch of one. A JSON connection carries Send,
// Stats and FetchModel with the same answers as a binary one; batched
// Flush, Query and QueryNodes need the binary codec and return an error
// there without writing a frame.
type Agent struct {
	nodeID string
	conn   net.Conn
	// f frames every message on the connection, JSON and binary alike, and
	// owns the encode/decode scratch; binary is set once the Hello handshake
	// settled on the binary codec.
	f      *binFramer
	binary bool
	batch  batcher
	// series is the reply QueryNodes hands its caller, reused per reply.
	series SeriesReply
	// ests is the reply scratch Record and Flush return estimates in,
	// reused per reply.
	ests []Estimate
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

// SetDeadline bounds the next request round trip (zero time clears it).
func (a *Agent) SetDeadline(t time.Time) { a.conn.SetDeadline(t) }

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
// connection is still healthy. On a binary connection the sample is a
// RecordBatch of one and the round trip is allocation-free in steady state:
// the request is built in the framer's write scratch and the reply decoded
// into the agent's estimate scratch.
func (a *Agent) Send(t float64, pmc []float64, measured *float64) (Estimate, error) {
	if a.binary {
		one := [1]BatchSample{{Time: t, PMC: pmc, Measured: measured}}
		ests, err := a.sendBatch(one[:], a.ests[:0])
		if err != nil {
			return Estimate{}, err
		}
		a.ests = ests
		return ests[0], nil
	}
	if err := WriteMsg(a.f.w, KindSample, Sample{NodeID: a.nodeID, Time: t, PMC: pmc, Measured: measured}); err != nil {
		return Estimate{}, err
	}
	rep, err := a.roundTrip(KindEstimate)
	if err != nil {
		return Estimate{}, err
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
// pmc, so callers may reuse their buffer immediately. The returned slice is
// the agent's reply scratch: it stays valid until the next Send, Record or
// Flush on this agent, so a caller that keeps estimates past that copies
// them.
func (a *Agent) Record(t float64, pmc []float64, measured *float64) ([]Estimate, error) {
	if a.batch.opts.MaxSamples < 2 {
		est, err := a.Send(t, pmc, measured)
		if err != nil {
			return nil, err
		}
		a.ests = append(a.ests[:0], est)
		return a.ests, nil
	}
	a.batch.add(t, pmc, measured)
	if a.batch.n < a.batch.opts.MaxSamples {
		return nil, nil
	}
	return a.Flush()
}

// Flush sends the pending batch now and returns its estimates (nil when
// nothing was pending) in the reply scratch Record describes, valid until
// the next call that returns estimates. The pending samples are consumed
// either way: a *ServiceError means the service rejected the whole batch,
// and a transport error means the connection is gone. An Agent retries
// neither; a caller that needs the samples replayed after an outage hands
// them to ResilientAgent.SendSamples instead.
func (a *Agent) Flush() ([]Estimate, error) {
	if a.batch.n == 0 {
		return nil, nil
	}
	ests, err := a.sendBatch(a.batch.wireSamples(), a.ests[:0])
	a.batch.reset()
	a.ests = ests
	if err != nil {
		return nil, err
	}
	return ests, nil
}

// sendBatch performs one RecordBatch round trip and appends the reply's
// estimates, one per sample, to dst; Send, Flush and
// ResilientAgent.SendSamples all run it. A reply with any other count is a
// protocol error. On error it returns dst as it was handed.
func (a *Agent) sendBatch(samples []BatchSample, dst []Estimate) ([]Estimate, error) {
	if err := a.needBinary(KindRecordBatch); err != nil {
		return dst, err
	}
	if err := a.f.writeRecordBatch(a.nodeID, samples); err != nil {
		return dst, err
	}
	rep, err := a.roundTrip(KindEstimateBatch)
	if err != nil {
		return dst, err
	}
	ests, err := a.f.readEstimateBatch(rep.payload, dst)
	if err == nil && len(ests)-len(dst) != len(samples) {
		err = fmt.Errorf("cluster: %d estimates answer a batch of %d", len(ests)-len(dst), len(samples))
	}
	if err != nil {
		return dst, err
	}
	return ests, nil
}

// needBinary refuses, before anything is written, a request only the
// binary codec carries (see binaryOnly).
func (a *Agent) needBinary(kind MsgKind) error {
	if a.binary {
		return nil
	}
	return fmt.Errorf("cluster: %w", binaryOnly(kind))
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
	if err := a.needBinary(KindQuery); err != nil {
		return SeriesBody{}, err
	}
	if err := a.f.writeQuery(req); err != nil {
		return SeriesBody{}, err
	}
	rep, err := a.roundTrip(KindSeries)
	if err != nil {
		return SeriesBody{}, err
	}
	series := SeriesReply{f: a.f, msg: rep}
	return series.Body()
}

// queryWindow bounds the request bytes QueryNodes keeps in flight on one
// connection. A window is written whole before its first reply is read, so
// it must fit the buffers between the two ends while the peer sits in a
// reply write nobody is reading yet: it is half the 4 KiB bufio buffer on
// either side — one write here, one read into the serve loop's reader, even
// over an unbuffered pipe — and far below any kernel socket buffer. Some
// fifty queries fit; a request larger than the window travels alone, which
// is the plain request/reply protocol.
const queryWindow = 2 << 10

// queryFrameLen is the size of q's request frame.
func queryFrameLen(q *QueryRequest) int {
	return 4 + 1 + 2 + len(q.NodeID) + 2 + len(q.Channel) + 8 + 8 + 4
}

// QueryNodes asks q of every node in nodes (q.NodeID is overwritten) over
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
// connection unusable: requests past it may be in flight. On a JSON
// connection the error comes at once, done 0, with nothing written.
func (a *Agent) QueryNodes(q QueryRequest, nodes []string, timeout time.Duration, each func(i int, rep *SeriesReply, rejected *ServiceError) error) (done int, err error) {
	if err := a.needBinary(KindQuery); err != nil {
		return 0, err
	}
	arm := func() {
		if timeout > 0 {
			a.SetDeadline(time.Now().Add(timeout))
		}
	}
	for sent := 0; done < len(nodes); {
		arm()
		for inFlight := 0; sent < len(nodes); sent++ {
			q.NodeID = nodes[sent]
			n := queryFrameLen(&q)
			if inFlight > 0 && inFlight+n > queryWindow {
				break
			}
			if err := a.f.writeQuery(q); err != nil {
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

// FetchModel downloads the service's trained model as the service
// serialised it; core.Unmarshal decodes it for local inference, the
// fallback path when the control node is unreachable between samples.
func (a *Agent) FetchModel() ([]byte, error) {
	var mb ModelBody
	err := a.call(KindModel, struct{}{}, &mb)
	return mb.Data, err
}

// Close terminates the connection. Pending batched samples are dropped;
// call Flush first if they matter.
func (a *Agent) Close() error { return a.conn.Close() }
