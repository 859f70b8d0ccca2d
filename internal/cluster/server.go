package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"highrpm/internal/obs"
	"highrpm/internal/tsdb"
)

// Handler answers the requests a Server decodes. Service (local model and
// store) and fleet.Router (the same answers from a sharded fleet) are the
// two implementations; the Server owns everything about the connection —
// accept, limits, deadlines, codec negotiation, framing — so neither
// carries a request loop of its own.
//
// Scratch-borrowing rule: a *RecordBatch argument (its samples, their PMC
// slices and Measured pointers) aliases the connection's framer scratch
// and is valid only until the method returns. A handler that keeps any of
// it — a replay buffer, a goroutine that outlives the call — copies first.
//
// Series replies are written, not returned: Query fills the connection's
// SeriesWriter, which turns each point into wire bytes in the framer's
// write scratch as the store walk produces it. The writer only appends to
// memory — it may run under a store lock — and the loop frames, sizes and
// flushes the reply after Query has returned.
//
// An error return is answered as one error reply and the connection stays
// up. A *ServiceError anywhere in the error's chain is relayed as its
// Message alone, so a proxying handler passes a backend's rejection
// through byte-identical to a direct connection.
//
// The Server checks every node ID before a handler sees it (see
// checkNodeID): Hello and Batch only ever receive a valid one.
type Handler interface {
	// Hello registers the node an agent announced.
	Hello(nodeID string)
	// Batch answers a record batch with one estimate per sample, in order.
	// A single sample is a batch of one, whichever codec carried it.
	// dst is the connection's reply scratch, empty: the handler appends to
	// it and returns it. The Server frames the returned slice before it
	// reads the next request and hands it back as the next call's dst, so
	// the slice must stay the connection's alone until then — a handler
	// whose estimates sit in memory another connection may overwrite
	// copies them into dst.
	Batch(rb *RecordBatch, dst []Estimate) ([]Estimate, error)
	// Query answers a window of stored history into w, the reply being built
	// for the connection the request arrived on: Begin and Point, or Relay
	// for a reply another service already framed. Whatever w holds when Query
	// returns an error is discarded.
	Query(q QueryRequest, w *SeriesWriter) error
	// Stats answers the service statistics.
	Stats() (Stats, error)
	// Model answers the serialised model (core.Marshal output).
	Model() ([]byte, error)
}

// ConnStats is a Server's own accounting: live and peak connections, the
// ones refused or reaped, and the frames handled per wire codec. Stats
// embeds it, so its JSON keys sit in the KindStats reply in this order.
type ConnStats struct {
	// Conns is the number of currently tracked connections; PeakConns the
	// highwater mark since the server started.
	Conns     int `json:"conns"`
	PeakConns int `json:"peak_conns"`
	// Rejected counts connections dropped at accept by the MaxConns cap;
	// TimedOut counts connections reaped by the per-connection read
	// deadline (dead or blackholed peers).
	Rejected int64 `json:"rejected"`
	TimedOut int64 `json:"timed_out"`
	// NodeConns maps node ID to its live connection count (connections
	// that have said Hello); nil when no node is connected.
	NodeConns map[string]int `json:"node_conns,omitempty"`
	// BinConns counts connections that negotiated the binary codec
	// (cumulative); BinFrames/JSONFrames count requests handled per codec,
	// so operators can see which peers still speak JSON.
	BinConns   int64 `json:"bin_conns"`
	BinFrames  int64 `json:"bin_frames"`
	JSONFrames int64 `json:"json_frames"`
}

// Server is the one connection server in the tree: it accepts agents,
// enforces ServiceOptions (connection cap, read/write deadlines, frame
// cap), negotiates the wire codec in Hello, decodes each request in
// whatever encoding it arrived, hands it to the Handler, and frames the
// reply the same way. One goroutine per connection, one request in flight
// per connection.
type Server struct {
	name string // log and error prefix ("cluster", "fleet")
	h    Handler
	opts ServiceOptions
	logf func(format string, args ...any)

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]string // conn -> node ID ("" before Hello)
	peak  int
	wg    sync.WaitGroup

	// closed is written under mu (so track and Shutdown agree on which
	// connections get drained) and read lock-free by the serve loops.
	closed atomic.Bool

	rejected   atomic.Int64
	timedOut   atomic.Int64
	binConns   atomic.Int64
	binFrames  atomic.Int64
	jsonFrames atomic.Int64
}

// NewServer builds a server that answers through h. name prefixes its
// errors and log lines; logf sinks the latter.
func NewServer(name string, h Handler, opts ServiceOptions, logf func(format string, args ...any)) *Server {
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = DefaultMaxFrame
	}
	return &Server{name: name, h: h, opts: opts, logf: logf, conns: map[net.Conn]string{}}
}

// Listen starts accepting agents on addr ("host:port"; ":0" picks a free
// port). It returns immediately; Addr reports the bound address.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("%s: listen: %w", s.name, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Listening reports whether the server was started and not yet stopped.
func (s *Server) Listening() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ln != nil && !s.closed.Load()
}

// Close stops the listener, terminates open connections immediately, and
// returns once every handler goroutine has exited — so whatever the
// handlers write to may be torn down next. It is Shutdown without a grace
// period; closing twice is harmless.
func (s *Server) Close() error {
	return s.Shutdown(0)
}

// Shutdown drains gracefully: it stops accepting, lets every handler
// finish the request it is processing (replies are still written), reaps
// idle connections immediately, and force-closes whatever remains after
// grace. Like Close it returns once every handler goroutine has exited.
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	first := !s.closed.Swap(true)
	ln := s.ln
	if first && grace > 0 {
		// An expired read deadline unblocks handlers parked between
		// requests without cutting off a reply in flight: a handler
		// mid-request finishes computing, writes its reply (write deadlines
		// are separate), and exits at the top of its next iteration.
		now := time.Now()
		for c := range s.conns {
			c.SetReadDeadline(now)
		}
	}
	s.mu.Unlock()
	var err error
	if first && ln != nil {
		err = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	force := time.NewTimer(grace)
	defer force.Stop()
	select {
	case <-done:
	case <-force.C:
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// Stats snapshots the server's connection and codec accounting.
func (s *Server) Stats() ConnStats {
	out := ConnStats{
		Rejected:   s.rejected.Load(),
		TimedOut:   s.timedOut.Load(),
		BinConns:   s.binConns.Load(),
		BinFrames:  s.binFrames.Load(),
		JSONFrames: s.jsonFrames.Load(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out.Conns, out.PeakConns = len(s.conns), s.peak
	for _, id := range s.conns {
		if id == "" {
			continue
		}
		if out.NodeConns == nil {
			out.NodeConns = map[string]int{}
		}
		out.NodeConns[id]++
	}
	return out
}

// RegisterMetrics exports the server's ConnStats onto reg as six series
// named prefix_connections, _connections_peak, _rejected_total,
// _timed_out_total, _binary_connections_total and _frames_total{codec},
// refreshed from one Stats snapshot per scrape. Service and fleet.Router
// both export their front end through it. Call once.
func (s *Server) RegisterMetrics(reg *obs.Registry, prefix string) {
	conns := reg.Gauge(prefix+"_connections", "Live agent connections.")
	peak := reg.Gauge(prefix+"_connections_peak", "Highwater mark of live connections.")
	rejected := reg.Counter(prefix+"_rejected_total", "Connections dropped at accept by the MaxConns cap.")
	timedOut := reg.Counter(prefix+"_timed_out_total", "Connections reaped by the read deadline.")
	binConns := reg.Counter(prefix+"_binary_connections_total", "Connections that negotiated the binary codec.")
	frames := reg.CounterVec(prefix+"_frames_total", "Requests handled, by wire codec.", "codec")
	reg.OnGather(func() {
		st := s.Stats()
		conns.Set(float64(st.Conns))
		peak.Set(float64(st.PeakConns))
		rejected.Set(float64(st.Rejected))
		timedOut.Set(float64(st.TimedOut))
		binConns.Set(float64(st.BinConns))
		frames.With("binary").Set(float64(st.BinFrames))
		frames.With("json").Set(float64(st.JSONFrames))
	})
}

// track registers a live connection; it reports false when the server is
// closing or at its MaxConns cap and the connection should be dropped.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	if s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns {
		s.rejected.Add(1)
		return false
	}
	s.conns[conn] = ""
	if len(s.conns) > s.peak {
		s.peak = len(s.conns)
	}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// identify binds a connection to the node that said Hello on it, for the
// per-node accounting in ConnStats.
func (s *Server) identify(conn net.Conn, nodeID string) {
	s.mu.Lock()
	if _, ok := s.conns[conn]; ok {
		s.conns[conn] = nodeID
	}
	s.mu.Unlock()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !s.closed.Load() {
				s.logf("%s: accept: %v", s.name, err)
			}
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := s.serveConn(conn); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("%s: connection %s: %v", s.name, conn.RemoteAddr(), err)
			}
		}()
	}
}

// wireEnc is how one message arrived, and therefore how its reply travels.
type wireEnc uint8

const (
	// encJSON: a length-prefixed JSON envelope (connections that never
	// negotiated binary, and every connection's Hello).
	encJSON wireEnc = iota
	// encBinary: a native binary frame.
	encBinary
	// encWrapped: a JSON envelope inside a binKindJSON frame — the kind-0
	// escape hatch for kinds without a native layout (stats, model).
	encWrapped
)

// wireMsg is one decoded frame header — a request on the server side, a
// reply on the agent side; the body is decoded per kind.
type wireMsg struct {
	enc     wireEnc
	kind    MsgKind  // "" for a binary kind byte without a layout
	binKind byte     // encBinary: the raw kind byte
	env     Envelope // encJSON, encWrapped
	payload []byte   // encBinary; aliases the framer's read scratch
}

// binMsgKinds maps the native binary kinds onto the protocol's message
// kinds, so one dispatch serves every encoding.
var binMsgKinds = [...]MsgKind{
	binKindQuery:         KindQuery,
	binKindSeries:        KindSeries,
	binKindError:         KindError,
	binKindRecordBatch:   KindRecordBatch,
	binKindEstimateBatch: KindEstimateBatch,
	binKindRawSeries:     KindSeries,
}

// readMsg reads the next frame in the connection's current codec. Both ends
// of a connection read through it: the server its requests, the agent its
// replies.
func (f *binFramer) readMsg(binary bool) (wireMsg, error) {
	if !binary {
		env, err := ReadMsgLimit(f.r, f.maxFrame)
		return wireMsg{enc: encJSON, kind: env.Kind, env: env}, err
	}
	kind, payload, err := f.readFrame()
	if err != nil {
		return wireMsg{}, err
	}
	if kind == binKindJSON {
		env, err := readJSONEnvelope(payload)
		return wireMsg{enc: encWrapped, kind: env.Kind, env: env}, err
	}
	m := wireMsg{enc: encBinary, binKind: kind, payload: payload}
	if int(kind) < len(binMsgKinds) {
		m.kind = binMsgKinds[kind]
	}
	return m, nil
}

// kindName renders the message's kind for an "unknown"/"unexpected" error.
func (m *wireMsg) kindName() string {
	if m.enc == encBinary {
		return fmt.Sprintf("binary kind %d", m.binKind)
	}
	return fmt.Sprintf("kind %q", m.kind)
}

// requestSample decodes a JSON sample into the framer's scratch batch as a
// batch of one, so a single sample takes the batch path whatever codec
// carried it.
func (f *binFramer) requestSample(env Envelope) (*RecordBatch, error) {
	var smp Sample
	if err := DecodeBody(env, &smp); err != nil {
		return nil, err
	}
	one := BatchSample{Time: smp.Time, PMC: smp.PMC, Measured: smp.Measured, Relayed: smp.Relayed}
	f.batch = RecordBatch{NodeID: smp.NodeID, Samples: append(f.batch.Samples[:0], one)}
	return &f.batch, nil
}

// binaryOnly refuses a record batch or a query that arrived as a JSON
// envelope: JSON carries the handshake, single samples and the stats and
// model envelopes, and the batch and series paths are binary frames only.
// The server answers it as an error reply; an agent returns it before it
// writes a byte.
func binaryOnly(kind MsgKind) error {
	return fmt.Errorf("%s needs the binary codec", kind)
}

// Writers: each frames a message in the given encoding — a reply in the
// encoding its request arrived in, an agent's request in its connection's.
// Nothing reaches the connection until the caller flushes.

func (f *binFramer) writeJSON(enc wireEnc, kind MsgKind, body any) error {
	if enc == encJSON {
		return WriteMsg(f.w, kind, body)
	}
	return f.writeJSONEnvelope(kind, body)
}

func (f *binFramer) replyError(enc wireEnc, err error) error {
	msg := err.Error()
	var se *ServiceError
	if errors.As(err, &se) {
		msg = se.Message
	}
	if enc == encBinary {
		return f.writeError(msg)
	}
	return f.writeJSON(enc, KindError, ErrorBody{Message: msg})
}

// checkNodeID refuses a node ID no store can keep: an empty one, whose
// history could never be read back (an empty QueryRequest.NodeID asks for
// the aggregate), and one longer than tsdb.MaxNodeIDLen, which a WAL
// record cannot carry. The refusal is a *ServiceError, so a router answers
// it byte-identically to a service.
func checkNodeID(id string) error {
	if id == "" {
		return &ServiceError{Message: "empty node ID"}
	}
	if len(id) > tsdb.MaxNodeIDLen {
		return &ServiceError{Message: fmt.Sprintf("node ID of %d bytes exceeds %d", len(id), tsdb.MaxNodeIDLen)}
	}
	return nil
}

// errSeriesTooLarge answers a query whose reply would not fit one frame.
var errSeriesTooLarge = errors.New("series reply too large; narrow the query window or coarsen the resolution")

// serveConn runs one connection's request loop until the peer goes away,
// a frame is malformed, or a deadline fires. Every connection starts on
// JSON framing; a Hello that offers the binary codec switches it for good
// after the (JSON) Hello reply. The loop allocates nothing per binary
// frame: requests decode into the framer's scratch and replies are built
// in it.
func (s *Server) serveConn(conn net.Conn) error {
	defer conn.Close()
	if !s.track(conn) {
		return nil
	}
	defer s.untrack(conn)
	f := newBinFramer(bufio.NewReader(conn), bufio.NewWriter(conn), s.opts.MaxFrame)
	binary := false
	var ests []Estimate // reused batch-reply scratch
	series := SeriesWriter{f: f}
	for {
		if s.opts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
		}
		// Re-arm, then look: if Shutdown has not begun, its own deadline
		// write comes after this one and still cuts the read below short; if
		// it has, the re-armed deadline would park a drained handler until
		// the force-close, so leave now.
		if s.closed.Load() {
			return nil
		}
		req, err := f.readMsg(binary)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if s.closed.Load() {
					return nil // reaped by Shutdown's expired deadline, not a dead peer
				}
				s.timedOut.Add(1)
			}
			return err
		}
		if s.opts.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		}
		if binary {
			s.binFrames.Add(1)
		} else {
			s.jsonFrames.Add(1)
		}
		// herr is the handler's refusal (answered as an error reply), werr a
		// failure to frame or write the reply (fatal to the connection).
		var herr, werr error
		switch req.kind {
		case KindHello:
			var h Hello
			if err := DecodeBody(req.env, &h); err != nil {
				return err
			}
			// A Hello without a valid ID still negotiates — query clients
			// and the fleet router's query connection send an empty one —
			// but registers nothing.
			if checkNodeID(h.NodeID) == nil {
				s.h.Hello(h.NodeID)
				s.identify(conn, h.NodeID)
			}
			reply := Hello{NodeID: h.NodeID}
			for _, c := range h.Codecs {
				if c == CodecBinary {
					reply.Codec = CodecBinary
				}
			}
			if binary {
				reply.Codec = CodecBinary // a redundant hello; the codec is settled
			}
			werr = f.writeJSON(req.enc, KindHello, reply)
			if !binary && reply.Codec == CodecBinary {
				// The JSON reply just framed is this connection's last JSON
				// frame; every later one is binary.
				binary = true
				s.binConns.Add(1)
			}
		case KindSample:
			// Only JSON carries a single sample: binary kind 2 is reserved.
			rb, err := f.requestSample(req.env)
			if err != nil {
				return err
			}
			if herr = checkNodeID(rb.NodeID); herr == nil {
				if ests, herr = s.h.Batch(rb, ests[:0]); herr == nil {
					werr = f.writeJSON(req.enc, KindEstimate, ests[0])
				}
			}
		case KindRecordBatch:
			if req.enc != encBinary {
				herr = binaryOnly(req.kind)
				break
			}
			rb, err := f.readRecordBatch(req.payload)
			if err != nil {
				return err
			}
			if herr = checkNodeID(rb.NodeID); herr == nil {
				if ests, herr = s.h.Batch(rb, ests[:0]); herr == nil {
					werr = f.writeEstimateBatch(ests)
				}
			}
		case KindQuery:
			if req.enc != encBinary {
				herr = binaryOnly(req.kind)
				break
			}
			q, err := f.readQuery(req.payload)
			if err != nil {
				return err
			}
			series.reset()
			if herr = s.h.Query(q, &series); herr == nil {
				werr = series.finish()
				if errors.Is(werr, ErrFrameTooLarge) {
					// Nothing was written yet (a frame is sized before its
					// length prefix goes out); tell the agent to narrow the
					// window instead of killing the connection.
					werr, herr = nil, errSeriesTooLarge
				}
			}
		case KindStats:
			var st Stats
			if st, herr = s.h.Stats(); herr == nil {
				werr = f.writeJSON(req.enc, KindStats, st)
			}
		case KindModel:
			var data []byte
			if data, herr = s.h.Model(); herr == nil {
				werr = f.writeJSON(req.enc, KindModel, ModelBody{Data: data})
			}
		default:
			herr = fmt.Errorf("unknown %s", req.kindName())
		}
		if herr != nil {
			werr = f.replyError(req.enc, herr)
		}
		if werr != nil {
			return werr
		}
		if err := f.w.Flush(); err != nil {
			return err
		}
	}
}
