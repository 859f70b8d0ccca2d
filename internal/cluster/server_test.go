package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"highrpm/internal/leaktest"
	"highrpm/internal/tsdb"
)

// stubHandler is a Handler that answers from its arguments alone — no
// model, no store — so a test of the Server measures the Server. With
// maxFrame set it also polices the decode bound: nothing a request decodes
// to may be out of proportion to the frame cap it arrived under.
type stubHandler struct {
	tb       testing.TB
	maxFrame int
}

// checkDecoded fails the test when a request decoded to more than its
// frame could have carried. A binary value costs its own 8 bytes on the
// wire and a JSON one at least 2 ("0,"), hence the factor.
func (h stubHandler) checkDecoded(values int) {
	if h.maxFrame > 0 && 8*values > 4*h.maxFrame {
		h.tb.Errorf("request decoded to %d values under a %d-byte frame cap", values, h.maxFrame)
	}
}

func (h stubHandler) Hello(string) {}

// Batch answers each sample with its reading, or with the relayed estimate
// it carries. It refuses an empty batch with a *ServiceError and a batch
// whose first sample has no PMC values with a plain error, so a test sees
// both kinds of refusal.
func (h stubHandler) Batch(rb *RecordBatch, dst []Estimate) ([]Estimate, error) {
	values := 0
	for i := range rb.Samples {
		s := &rb.Samples[i]
		values += len(s.PMC) + 1
		est := Estimate{NodeID: rb.NodeID, Time: s.Time}
		if s.Measured != nil {
			est.PNode, est.FromMeasurement = *s.Measured, true
		}
		if s.Relayed != nil { // a relayed estimate is the answer
			est.PNode, est.PCPU, est.PMEM = s.Relayed.PNode, s.Relayed.PCPU, s.Relayed.PMEM
		}
		dst = append(dst, est)
	}
	h.checkDecoded(values)
	switch {
	case len(rb.Samples) == 0:
		// What a proxying handler returns when its backend refused.
		return dst, &ServiceError{Message: "stub: empty batch"}
	case len(rb.Samples[0].PMC) == 0:
		return dst, errors.New("stub: empty sample")
	}
	return dst, nil
}

// Query answers one point per second of the window (at most 4096), so a
// wide window under a small frame cap exercises the too-large fallback.
func (h stubHandler) Query(q QueryRequest, w *SeriesWriter) error {
	h.checkDecoded((len(q.NodeID) + len(q.Channel)) / 8)
	if q.Channel == "" {
		return errors.New("stub: no channel")
	}
	n := 0
	if d := q.To - q.From; d > 0 {
		n = int(min(d, 4096))
	}
	w.Begin(q.NodeID, q.Channel, q.ResolutionS, n)
	for i := 0; i < n; i++ {
		w.Point(tsdb.Point{})
	}
	return nil
}

func (h stubHandler) Stats() (Stats, error) { return Stats{Nodes: 1}, nil }

func (h stubHandler) Model() ([]byte, error) { return []byte("stub-model"), nil }

// handshakeBinary says Hello with a binary offer on conn and returns the
// client-side framer once the server has accepted it.
func handshakeBinary(t testing.TB, conn net.Conn, nodeID string) *binFramer {
	t.Helper()
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	if err := WriteMsg(w, KindHello, Hello{NodeID: nodeID, Codecs: []string{CodecBinary}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	env, err := ReadMsgLimit(r, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	var reply Hello
	if err := DecodeBody(env, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Codec != CodecBinary {
		t.Fatalf("negotiated %q, want binary", reply.Codec)
	}
	return newBinFramer(r, w, DefaultMaxFrame)
}

// scriptConn is a net.Conn that plays a fixed byte stream to the server
// and records what the server writes back.
type scriptConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return scriptAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return scriptAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

type scriptAddr struct{}

func (scriptAddr) Network() string { return "script" }
func (scriptAddr) String() string  { return "script" }

// serveScript plays stream to a Server over h capped at maxFrame and
// returns the server's replies, split into frames, with its accounting.
func serveScript(t testing.TB, h Handler, stream []byte, maxFrame int) ([][]byte, ConnStats) {
	t.Helper()
	srv := NewServer("test", h, ServiceOptions{MaxFrame: maxFrame}, func(string, ...any) {})
	conn := &scriptConn{in: bytes.NewReader(stream)}
	// Whatever error ends the connection is the stream's fault, not a
	// finding — unless it is a reply the server could not marshal; the
	// laws below are about what happened before it.
	var unmarshalable *json.UnsupportedValueError
	if err := srv.serveConn(conn); errors.As(err, &unmarshalable) {
		t.Fatalf("the server could not marshal its reply: %v", err)
	}
	var replies [][]byte
	out := conn.out.Bytes()
	for len(out) > 0 {
		if len(out) < 4 {
			t.Fatalf("server wrote a torn length prefix: %x", out)
		}
		n := int(binary.BigEndian.Uint32(out))
		if n > len(out)-4 {
			t.Fatalf("server wrote a torn frame: prefix %d, %d bytes follow", n, len(out)-4)
		}
		replies = append(replies, out[4:4+n])
		out = out[4+n:]
	}
	st := srv.Stats()
	if st.Conns != 0 {
		t.Fatalf("connection still tracked after serveConn returned: %+v", st)
	}
	return replies, st
}

// scriptStream concatenates a JSON Hello (offering codecs) with whatever
// frames follow, each already framed.
func scriptStream(t testing.TB, codecs []string, frames ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMsg(&buf, KindHello, Hello{NodeID: "script", Codecs: codecs}); err != nil {
		t.Fatal(err)
	}
	for _, fr := range frames {
		buf.Write(fr)
	}
	return buf.Bytes()
}

func jsonFrame(t testing.TB, kind MsgKind, body any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMsg(&buf, kind, body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reservedKindFrame is a well-formed frame of binary kind 1 — once a Hello
// layout no peer negotiated, now reserved; the server must answer it as an
// unknown kind and keep the connection up.
func reservedKindFrame() []byte {
	return frameFor(append([]byte{1, 0, 6}, "script"...))
}

// oneSample frames a RecordBatch of one — what a binary agent sends for a
// single sample.
func oneSample(tb testing.TB, node string, tm float64, pmc []float64, measured *float64, rel *RelayedEstimate) []byte {
	return encodeBinFrame(tb, func(g *binFramer) error {
		return g.writeRecordBatch(node, []BatchSample{{Time: tm, PMC: pmc, Measured: measured, Relayed: rel}})
	})
}

// fuzzMaxFrame is the frame cap FuzzServeConn's server runs with: small
// enough that the fuzzer trips it and the series fallback constantly.
const fuzzMaxFrame = 4 << 10

// FuzzServeConn throws arbitrary byte streams — JSON frames, a codec
// switch, binary frames, garbage — at the shared serve loop over a stub
// handler. The laws: it never panics; it never hands the handler a request
// out of proportion to the frame cap (stubHandler.checkDecoded); every
// frame it accepts gets exactly one reply, except the last when that one
// ended the connection; and once the connection is binary no reply
// exceeds the cap.
func FuzzServeConn(f *testing.F) {
	pmc := []float64{1, 2, 3}
	meas := 90.5
	bin := func(write func(g *binFramer) error) []byte { return encodeBinFrame(f, write) }
	sample := oneSample(f, "script", 1, pmc, &meas, nil)
	emptySample := oneSample(f, "script", 2, nil, nil, nil)
	batch := bin(func(g *binFramer) error {
		return g.writeRecordBatch("script", []BatchSample{{Time: 1, PMC: pmc}, {Time: 2, PMC: pmc, Measured: &meas}})
	})
	emptyBatch := bin(func(g *binFramer) error { return g.writeRecordBatch("script", nil) })
	query := bin(func(g *binFramer) error {
		return g.writeQuery(QueryRequest{NodeID: "script", Channel: "p_node", From: 0, To: 10, ResolutionS: 1})
	})
	wideQuery := bin(func(g *binFramer) error {
		return g.writeQuery(QueryRequest{NodeID: "script", Channel: "p_node", From: 0, To: 1e6, ResolutionS: 1})
	})
	stats := bin(func(g *binFramer) error { return g.writeJSONEnvelope(KindStats, struct{}{}) })
	model := bin(func(g *binFramer) error { return g.writeJSONEnvelope(KindModel, struct{}{}) })
	rehello := bin(func(g *binFramer) error { return g.writeJSONEnvelope(KindHello, Hello{NodeID: "again"}) })
	binHello := reservedKindFrame()

	// A whole binary session, every request kind and both error paths.
	f.Add(scriptStream(f, []string{CodecBinary}, sample, emptySample, batch, emptyBatch, query, wideQuery, stats, model, rehello, binHello))
	// The same session from an agent that never offers binary.
	f.Add(scriptStream(f, nil,
		jsonFrame(f, KindSample, Sample{NodeID: "script", Time: 1, PMC: pmc, Measured: &meas}),
		jsonFrame(f, KindSample, Sample{NodeID: "script", Time: 2}),
		jsonFrame(f, KindRecordBatch, RecordBatch{NodeID: "script", Samples: []BatchSample{{Time: 1, PMC: pmc}}}),
		jsonFrame(f, KindQuery, QueryRequest{Channel: "p_node", From: 0, To: 1e6}),
		jsonFrame(f, KindStats, struct{}{}),
		jsonFrame(f, KindModel, struct{}{}),
		jsonFrame(f, MsgKind("bogus"), struct{}{}),
	))
	// A binary connection fed a JSON frame, a truncated binary frame, an
	// over-cap length prefix, an empty frame.
	f.Add(scriptStream(f, []string{CodecBinary}, jsonFrame(f, KindStats, struct{}{})))
	f.Add(scriptStream(f, []string{CodecBinary}, sample[:len(sample)-3]))
	f.Add(scriptStream(f, []string{CodecBinary}, []byte{0xFF, 0xFF, 0xFF, 0xFF}))
	f.Add(scriptStream(f, []string{CodecBinary}, []byte{0, 0, 0, 0}))
	// No Hello at all; nothing at all.
	f.Add(sample)
	f.Add([]byte{})
	// A batch and a query refused as JSON, then a sample still answered.
	jsonRefused, wrappedRefused := refusalSessions(f)
	f.Add(jsonRefused)
	f.Add(wrappedRefused)

	f.Fuzz(func(t *testing.T, stream []byte) {
		replies, st := serveScript(t, stubHandler{tb: t, maxFrame: fuzzMaxFrame}, stream, fuzzMaxFrame)
		accepted := st.JSONFrames + st.BinFrames
		if n := int64(len(replies)); n > accepted || n < accepted-1 {
			t.Fatalf("%d replies to %d accepted frames", n, accepted)
		}
		if st.BinConns > 1 {
			t.Fatalf("one connection negotiated binary %d times", st.BinConns)
		}
		// Every JSON-mode frame but a connection-ending last one was
		// answered, so the replies past those are the binary ones.
		for i := int(st.JSONFrames); i < len(replies); i++ {
			if len(replies[i]) > fuzzMaxFrame {
				t.Fatalf("binary reply %d is %d bytes, cap %d", i, len(replies[i]), fuzzMaxFrame)
			}
		}
	})
}

// FuzzServiceConn throws arbitrary frame sequences at a fresh Service's
// handler — the real model, monitors and store behind the serve loop. The
// laws: it never panics; every frame it accepts gets exactly one reply,
// except the last when that one ended the connection, and never because
// the reply could not be marshalled (serveScript); and every estimate and
// estimate-batch reply has a finite PNode, PCPU and PMEM. The seeds include
// the inputs that once broke the last law: readings of ±MaxFloat64, whose
// trend slope overflowed to -Inf and made every later estimate NaN, and a
// relayed estimate of NaN, recorded and answered as it stood; and a session
// that re-sends a sample, which the service answers from its record.
func FuzzServiceConn(f *testing.F) {
	pmc := benchPMC()
	meas, huge, hugeNeg := 90.5, math.MaxFloat64, -math.MaxFloat64
	bin := func(write func(g *binFramer) error) []byte { return encodeBinFrame(f, write) }
	sample := func(tm float64, measured *float64, rel *RelayedEstimate) []byte {
		return oneSample(f, "script", tm, pmc, measured, rel)
	}
	session := [][]byte{sample(0, &meas, nil), sample(1, nil, nil), sample(2, nil, nil)}
	session = append(session,
		bin(func(g *binFramer) error {
			return g.writeRecordBatch("script", []BatchSample{{Time: 3, PMC: pmc}, {Time: 4, PMC: pmc, Measured: &meas}, {Time: 5, PMC: pmc}})
		}),
		bin(func(g *binFramer) error {
			return g.writeQuery(QueryRequest{NodeID: "script", Channel: "p_node", From: 0, To: 10, ResolutionS: 1})
		}),
		bin(func(g *binFramer) error { return g.writeJSONEnvelope(KindStats, struct{}{}) }),
	)
	f.Add(scriptStream(f, []string{CodecBinary}, session...))
	pair := [][]byte{sample(0, &huge, nil)}
	for tm := 1; tm < 15; tm++ {
		var measured *float64
		if tm == 10 {
			measured = &hugeNeg
		}
		pair = append(pair, sample(float64(tm), measured, nil))
	}
	f.Add(scriptStream(f, []string{CodecBinary}, pair...))
	nanRel := &RelayedEstimate{PNode: math.NaN(), PCPU: 40, PMEM: 10}
	f.Add(scriptStream(f, []string{CodecBinary}, sample(0, &meas, nil), sample(1, nil, nanRel), sample(2, nil, nil)))
	f.Add(scriptStream(f, []string{CodecBinary}, sample(0, &meas, nil), sample(1, nil, nil), sample(1, &huge, nil), sample(2, nil, nil)))
	var jsonSession [][]byte
	for tm := 0; tm < 12; tm++ {
		smp := Sample{NodeID: "script", Time: float64(tm), PMC: pmc}
		switch tm {
		case 0:
			smp.Measured = &huge // 1.7976931348623157e308 on the wire
		case 10:
			smp.Measured = &hugeNeg
		}
		jsonSession = append(jsonSession, jsonFrame(f, KindSample, smp))
	}
	f.Add(scriptStream(f, nil, jsonSession...))

	model := sharedModel(f)
	f.Fuzz(func(t *testing.T, stream []byte) {
		svc := NewService(model)
		svc.Logf = t.Logf
		defer svc.Close()
		replies, st := serveScript(t, serviceHandler{svc}, stream, fuzzMaxFrame)
		accepted := st.JSONFrames + st.BinFrames
		if n := int64(len(replies)); n > accepted || n < accepted-1 {
			t.Fatalf("%d replies to %d accepted frames", n, accepted)
		}
		// Replies to JSON-mode frames are plain envelopes; the rest are
		// binary frames, an estimate batch native or an estimate wrapped.
		g := newBinFramer(nil, nil, DefaultMaxFrame)
		for i, rep := range replies {
			var ests []Estimate
			var env Envelope
			var err error
			switch {
			case i >= int(st.JSONFrames) && rep[0] == binKindEstimateBatch:
				ests, err = g.readEstimateBatch(rep[1:], nil)
			case i >= int(st.JSONFrames) && rep[0] == binKindJSON:
				env, err = readJSONEnvelope(rep[1:])
			case i < int(st.JSONFrames):
				err = json.Unmarshal(rep, &env)
			}
			if err == nil && env.Kind == KindEstimate {
				var est Estimate
				err = DecodeBody(env, &est)
				ests = []Estimate{est}
			}
			if err != nil {
				t.Fatalf("reply %d does not decode: %v", i, err)
			}
			for _, est := range ests {
				for _, v := range [...]float64{est.PNode, est.PCPU, est.PMEM} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("reply %d: estimate %+v is not finite", i, est)
					}
				}
			}
		}
	})
}

// TestServeConnScripted pins what the fuzz seeds are expected to produce:
// one reply per request in the encoding it arrived in, handler refusals as
// error replies that leave the connection up, a backend's *ServiceError
// relayed as its bare message, and the series fallback instead of an
// over-cap reply. The reserved binary kinds — 1, and 2 and 3, a single
// sample and its estimate in the layouts they had — are each answered as
// unknown, and the connection then still answers a sample, binary and
// wrapped in a kind-0 envelope.
func TestServeConnScripted(t *testing.T) {
	pmc := []float64{1, 2, 3}
	bin := func(write func(g *binFramer) error) []byte { return encodeBinFrame(t, write) }
	retired := func(hexPayload string) []byte {
		payload, err := hex.DecodeString(hexPayload)
		if err != nil {
			t.Fatal(err)
		}
		return frameFor(payload)
	}
	stream := scriptStream(t, []string{CodecBinary},
		oneSample(t, "script", 1, pmc, nil, nil),
		oneSample(t, "script", 2, nil, nil, nil),
		bin(func(g *binFramer) error { return g.writeRecordBatch("script", nil) }),
		bin(func(g *binFramer) error {
			return g.writeQuery(QueryRequest{Channel: "p_node", From: 0, To: 1e6})
		}),
		bin(func(g *binFramer) error { return g.writeJSONEnvelope(KindStats, struct{}{}) }),
		bin(func(g *binFramer) error { return g.writeJSONEnvelope(MsgKind("bogus"), struct{}{}) }),
		reservedKindFrame(),
		retired(parentBinSample),
		retired(parentBinEstimate),
		oneSample(t, "script", 3, pmc, nil, nil),
		bin(func(g *binFramer) error {
			return g.writeJSONEnvelope(KindSample, Sample{NodeID: "script", Time: 4, PMC: pmc})
		}),
	)
	replies, st := serveScript(t, stubHandler{tb: t, maxFrame: fuzzMaxFrame}, stream, fuzzMaxFrame)
	if st.JSONFrames != 1 || st.BinFrames != 11 || st.BinConns != 1 {
		t.Fatalf("accounting: %+v", st)
	}
	if len(replies) != 12 {
		t.Fatalf("%d replies, want 12", len(replies))
	}
	g := newBinFramer(nil, nil, DefaultMaxFrame)
	binError := func(i int) string {
		t.Helper()
		if replies[i][0] != binKindError {
			t.Fatalf("reply %d: kind %d, want a binary error frame", i, replies[i][0])
		}
		msg, err := g.readError(replies[i][1:])
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	wrapped := func(i int) Envelope {
		t.Helper()
		if replies[i][0] != binKindJSON {
			t.Fatalf("reply %d: kind %d, want a wrapped JSON envelope", i, replies[i][0])
		}
		env, err := readJSONEnvelope(replies[i][1:])
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	oneEstimate := func(i int) Estimate {
		t.Helper()
		if replies[i][0] != binKindEstimateBatch {
			t.Fatalf("reply %d: kind %d, want an estimate batch", i, replies[i][0])
		}
		ests, err := g.readEstimateBatch(replies[i][1:], nil)
		if err != nil || len(ests) != 1 {
			t.Fatalf("reply %d: %d estimates, err %v, want one", i, len(ests), err)
		}
		return ests[0]
	}
	if est := oneEstimate(1); est.Time != 1 {
		t.Fatalf("sample answered %+v", est)
	}
	if got := binError(2); got != "stub: empty sample" {
		t.Fatalf("handler refusal relayed as %q", got)
	}
	if got := binError(3); got != "stub: empty batch" {
		t.Fatalf("*ServiceError relayed as %q, want its bare message", got)
	}
	if got := binError(4); got != errSeriesTooLarge.Error() {
		t.Fatalf("over-cap series answered %q", got)
	}
	if env := wrapped(5); env.Kind != KindStats {
		t.Fatalf("wrapped stats answered with kind %q", env.Kind)
	}
	if env := wrapped(6); env.Kind != KindError {
		t.Fatalf("wrapped unknown kind answered with kind %q", env.Kind)
	}
	for i, kind := range []int{1, 2, 3} {
		if got, want := binError(7+i), fmt.Sprintf("unknown binary kind %d", kind); got != want {
			t.Fatalf("reserved kind %d answered %q, want %q", kind, got, want)
		}
	}
	if est := oneEstimate(10); est.Time != 3 {
		t.Fatalf("the sample after the reserved kinds was answered %+v", est)
	}
	var est Estimate
	if env := wrapped(11); env.Kind != KindEstimate || DecodeBody(env, &est) != nil || est.Time != 4 {
		t.Fatalf("wrapped sample answered %+v, estimate %+v", env, est)
	}
}

// refusalSessions are the two sessions in which JSON asks for what only
// binary frames carry: on a JSON connection the record batch a JSON agent
// sent while JSON still carried batches and a query, each a raw envelope;
// on a binary connection the same two as kind-0 envelopes. Each ends with
// a sample the connection must still answer.
func refusalSessions(tb testing.TB) (jsonSession, wrappedSession []byte) {
	pmc := []float64{1, 2, 3}
	q := QueryRequest{NodeID: "script", Channel: "p_node", From: 0, To: 10}
	batch := RecordBatch{NodeID: "script", Samples: []BatchSample{{Time: 1, PMC: pmc}}}
	jsonSession = scriptStream(tb, nil,
		frameFor([]byte(parentJSONBatch)),
		jsonFrame(tb, KindQuery, q),
		jsonFrame(tb, KindSample, Sample{NodeID: "script", Time: 1, PMC: pmc}))
	bin := func(write func(g *binFramer) error) []byte { return encodeBinFrame(tb, write) }
	wrappedSession = scriptStream(tb, []string{CodecBinary},
		bin(func(g *binFramer) error { return g.writeJSONEnvelope(KindRecordBatch, batch) }),
		bin(func(g *binFramer) error { return g.writeJSONEnvelope(KindQuery, q) }),
		oneSample(tb, "script", 1, pmc, nil, nil))
	return jsonSession, wrappedSession
}

// TestJSONRefusesBatchAndQuery: JSON carries the handshake, single samples
// and the stats and model envelopes, and nothing else. A JSON record batch
// and a JSON query each get one error reply naming the binary codec — a
// plain envelope on a JSON connection, a kind-0 one on a binary connection
// — and the connection then answers a sample. An agent pinned to JSON
// refuses its batched Flush, Query and QueryNodes before it writes a byte,
// and its Send then still round-trips.
func TestJSONRefusesBatchAndQuery(t *testing.T) {
	jsonSession, wrappedSession := refusalSessions(t)
	for _, tc := range []struct {
		name    string
		session []byte
		wrapped bool
	}{{"json", jsonSession, false}, {"wrapped", wrappedSession, true}} {
		replies, st := serveScript(t, stubHandler{tb: t}, tc.session, DefaultMaxFrame)
		if len(replies) != 4 || st.JSONFrames+st.BinFrames != 4 {
			t.Fatalf("%s: %d replies, accounting %+v", tc.name, len(replies), st)
		}
		for i, kind := range []MsgKind{KindRecordBatch, KindQuery} {
			rep := replies[1+i]
			if tc.wrapped {
				if rep[0] != binKindJSON {
					t.Fatalf("%s: %s answered with binary kind %d, want a kind-0 envelope", tc.name, kind, rep[0])
				}
				rep = rep[1:]
			}
			var env Envelope
			var eb ErrorBody
			if err := json.Unmarshal(rep, &env); err != nil || env.Kind != KindError {
				t.Fatalf("%s: %s answered %q (%v), want an error envelope", tc.name, kind, rep, err)
			}
			if err := DecodeBody(env, &eb); err != nil || eb.Message != binaryOnly(kind).Error() {
				t.Fatalf("%s: %s refused with %q (%v)", tc.name, kind, eb.Message, err)
			}
		}
		last := replies[3]
		if tc.wrapped && last[0] != binKindEstimateBatch || !tc.wrapped && !bytes.Contains(last, []byte(`"kind":"estimate"`)) {
			t.Fatalf("%s: the sample after the refusals was answered %q", tc.name, last)
		}
	}

	est := Estimate{NodeID: "script", Time: 1, PNode: 90}
	conn := &scriptConn{in: bytes.NewReader(frameIn(t, encJSON, func(f *binFramer, enc wireEnc) error { return f.writeJSON(enc, KindEstimate, est) }))}
	a := scriptAgent(conn, false)
	a.SetBatching(BatchOptions{MaxSamples: 8})
	pmc := []float64{1, 2, 3}
	if ests, err := a.Record(1, pmc, nil); ests != nil || err != nil {
		t.Fatalf("Record flushed a batch of one: %v, %v", ests, err)
	}
	_, flushErr := a.Flush()
	_, queryErr := a.Query(QueryRequest{NodeID: "script", Channel: "p_node", To: 10})
	done, groupErr := a.QueryNodes(QueryRequest{Channel: "p_node", To: 10}, []string{"a", "b"}, 0, func(int, *SeriesReply, *ServiceError) error {
		t.Error("a refused group reached its callback")
		return nil
	})
	for _, c := range []struct {
		verb string
		kind MsgKind
		err  error
	}{{"Flush", KindRecordBatch, flushErr}, {"Query", KindQuery, queryErr}, {"QueryNodes", KindQuery, groupErr}} {
		if c.err == nil || c.err.Error() != "cluster: "+binaryOnly(c.kind).Error() {
			t.Fatalf("JSON agent's %s: err %v", c.verb, c.err)
		}
	}
	if done != 0 || conn.out.Len() != 0 {
		t.Fatalf("refused verbs wrote %d bytes, QueryNodes done %d", conn.out.Len(), done)
	}
	got, err := a.Send(1, pmc, nil)
	if err != nil || got != est {
		t.Fatalf("Send after the refusals: %+v, %v", got, err)
	}
	if !bytes.Contains(conn.out.Bytes(), []byte(`"kind":"sample"`)) {
		t.Fatalf("Send wrote %q, want one JSON sample", conn.out.Bytes())
	}
}

// TestServerServeLoopExitsOnEOF guards the net.Pipe plumbing the zero-alloc
// test and the handler benchmarks rely on: closing the client ends
// serveConn with EOF, not a hang.
func TestServerServeLoopExitsOnEOF(t *testing.T) {
	leaktest.Check(t)
	srv := NewServer("test", stubHandler{}, ServiceOptions{}, t.Logf)
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.serveConn(server) }()
	handshakeBinary(t, client, "eof")
	client.Close()
	select {
	case err := <-done:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("serveConn returned %v, want EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveConn did not return after the client closed")
	}
}

// blockingHandler is a stubHandler whose Batch parks until released, so a
// test can hold a connection mid-request.
type blockingHandler struct {
	stubHandler
	entered chan struct{} // receives once a Batch is in the handler
	release chan struct{} // closed to let it answer
}

func (h blockingHandler) Batch(rb *RecordBatch, dst []Estimate) ([]Estimate, error) {
	h.entered <- struct{}{}
	<-h.release
	return h.stubHandler.Batch(rb, dst)
}

// TestShutdownDrainsInFlightRequest: a connection that is mid-request when
// Shutdown begins gets its reply and then leaves at once. Re-arming the read
// deadline without looking at closed used to park it, reply long delivered,
// until the force-close at the end of grace.
func TestShutdownDrainsInFlightRequest(t *testing.T) {
	leaktest.Check(t)
	h := blockingHandler{entered: make(chan struct{}), release: make(chan struct{})}
	var logMu sync.Mutex
	var logged []string
	srv := NewServer("test", h, DefaultServiceOptions(), func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	agent, err := Dial(srv.Addr(), "in-flight")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	meas := 90.5
	type reply struct {
		est Estimate
		err error
	}
	replied := make(chan reply, 1)
	go func() {
		est, err := agent.Send(1, []float64{1, 2, 3}, &meas)
		replied <- reply{est, err}
	}()
	<-h.entered

	const grace = 3 * time.Second
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(grace) }()
	// Shutdown is now waiting on the handler; let the request finish.
	time.Sleep(50 * time.Millisecond)
	close(h.release)

	if r := <-replied; r.err != nil || r.est.PNode != meas {
		t.Fatalf("in-flight request during Shutdown: %+v, %v", r.est, r.err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(start); took > grace/3 {
		t.Fatalf("Shutdown took %v with the only request answered after 50ms: the drained handler waited for the force-close", took)
	}
	if st := srv.Stats(); st.TimedOut != 0 {
		t.Fatalf("a drained connection was counted as timed out: %+v", st)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if len(logged) != 0 {
		t.Fatalf("draining logged errors: %q", logged)
	}
}

// wideSeriesHandler answers every query with one raw series just over
// DefaultMaxFrame.
type wideSeriesHandler struct{ stubHandler }

func (wideSeriesHandler) Query(q QueryRequest, w *SeriesWriter) error {
	n := DefaultMaxFrame/rawPointLen + 1024
	tms, vals := make([]int64, n), make([]float64, n)
	for i := range tms {
		tms[i] = int64(i) * 1000
	}
	w.Begin(q.NodeID, q.Channel, q.ResolutionS, n)
	w.Raw(tms, vals)
	return nil
}

// TestServerFrameCapNeverExceedsClients: a MaxFrame above DefaultMaxFrame
// cannot raise the cap, because every Agent reads with DefaultMaxFrame. A
// reply too large for the client is refused before it is written, and the
// connection stays usable. With the larger cap honoured, the agent refused
// the reply as ErrFrameTooLarge with the frame still unread, and the next
// request read a length prefix from inside it.
func TestServerFrameCapNeverExceedsClients(t *testing.T) {
	leaktest.Check(t)
	srv := NewServer("test", wideSeriesHandler{}, ServiceOptions{MaxFrame: 2 * DefaultMaxFrame}, t.Logf)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ag, err := Dial(srv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()
	ag.SetDeadline(time.Now().Add(30 * time.Second))
	_, err = ag.Query(QueryRequest{NodeID: "n", Channel: "p_node", To: 1})
	var se *ServiceError
	if !errors.As(err, &se) || se.Message != errSeriesTooLarge.Error() {
		t.Fatalf("oversized series: %v, want the %q service error", err, errSeriesTooLarge)
	}
	if st, err := ag.Stats(); err != nil || st.Nodes != 1 {
		t.Fatalf("stats after the refused query: %+v, %v", st, err)
	}
}
