package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"

	"highrpm/internal/leaktest"
)

// agentVerb is one Agent verb as the scripted-peer tests drive it: the call,
// the kind byte its request must carry on a binary connection (Send is one
// Sample frame, never a batch of one), and the reply a service would send.
type agentVerb struct {
	name    string
	reqKind byte
	call    func(a *Agent) (decoded int, err error)
	reply   func(f *binFramer, enc wireEnc) error
}

// agentVerbs lists every verb. decoded is how many elements the reply
// decoded to (estimates, points, model bytes), for the fuzzer's
// no-amplification law. FetchModel stops at the transferred bytes: decoding
// them is core's business, and TestAgentFetchModel covers the whole verb.
func agentVerbs() []agentVerb {
	pmc := []float64{1, 2, 3}
	meas := 90.5
	est := Estimate{NodeID: "script", Time: 1, PNode: meas, FromMeasurement: true}
	return []agentVerb{
		{"Send", binKindSample,
			func(a *Agent) (int, error) {
				_, err := a.Send(1, pmc, &meas)
				return 1, err
			},
			func(f *binFramer, enc wireEnc) error { return f.replyEstimate(enc, &est) }},
		{"RecordFlush", binKindRecordBatch,
			func(a *Agent) (int, error) {
				a.SetBatching(BatchOptions{MaxSamples: 8})
				if ests, err := a.Record(1, pmc, &meas); ests != nil || err != nil {
					return len(ests), errors.New("Record flushed a batch of one")
				}
				ests, err := a.Flush()
				return len(ests), err
			},
			func(f *binFramer, enc wireEnc) error { return f.replyEstimates(enc, []Estimate{est}) }},
		{"Query", binKindQuery,
			func(a *Agent) (int, error) {
				body, err := a.Query(QueryRequest{NodeID: "script", Channel: "p_node", From: 0, To: 10})
				return len(body.Points), err
			},
			func(f *binFramer, enc wireEnc) error {
				return f.replySeries(enc, SeriesBody{NodeID: "script", Channel: "p_node", ResolutionS: 1, Points: make([]SeriesPoint, 3)})
			}},
		{"Stats", binKindJSON,
			func(a *Agent) (int, error) {
				_, err := a.Stats()
				return 1, err
			},
			func(f *binFramer, enc wireEnc) error { return f.writeJSON(enc, KindStats, Stats{Nodes: 1}) }},
		{"FetchModel", binKindJSON,
			func(a *Agent) (int, error) {
				data, err := a.fetchModelBytes()
				return len(data), err
			},
			func(f *binFramer, enc wireEnc) error {
				return f.writeJSON(enc, KindModel, ModelBody{Data: []byte("stub-model")})
			}},
	}
}

// scriptAgent is an Agent past its handshake on conn, codec as given.
func scriptAgent(conn net.Conn, binary bool) *Agent {
	return &Agent{nodeID: "script", conn: conn, binary: binary,
		f: newBinFramer(bufio.NewReader(conn), bufio.NewWriter(conn), DefaultMaxFrame)}
}

// frameIn frames one message in enc through the server's own writers and
// returns its bytes.
func frameIn(t testing.TB, enc wireEnc, write func(f *binFramer, enc wireEnc) error) []byte {
	t.Helper()
	return encodeBinFrame(t, func(f *binFramer) error { return write(f, enc) })
}

// shortPayload cuts the last bytes off a frame's payload and fixes the
// length prefix up, so the frame is well-formed and its body is not.
func shortPayload(frame []byte) []byte {
	out := append([]byte(nil), frame[:len(frame)-3]...)
	binary.BigEndian.PutUint32(out, uint32(len(out)-4))
	return out
}

// scriptedPeer plays a service over conn: for each reply it reads one whole
// request frame, hands it to check, and answers with the scripted bytes.
func scriptedPeer(t *testing.T, conn net.Conn, check func(req []byte), replies ...[]byte) {
	r := bufio.NewReader(conn)
	for _, reply := range replies {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			t.Errorf("peer: request length: %v", err)
			return
		}
		req, err := readFrame(r, int(binary.BigEndian.Uint32(lenBuf[:])))
		if err != nil {
			t.Errorf("peer: request body: %v", err)
			return
		}
		check(req)
		if _, err := conn.Write(reply); err != nil {
			t.Errorf("peer: reply: %v", err)
			return
		}
	}
}

// TestAgentRoundTripScripted drives every verb over both codecs against a
// scripted peer and requires the same outcome class per kind of reply,
// whatever the verb and codec: the one roundTrip they all share decides it.
func TestAgentRoundTripScripted(t *testing.T) {
	leaktest.Check(t)
	const (
		ok       = iota // nil error
		rejected        // *ServiceError with the bare message, connection still usable
		protocol        // any other error
	)
	for _, codec := range []string{CodecJSON, CodecBinary} {
		enc := encJSON
		if codec == CodecBinary {
			enc = encBinary
		}
		errorFrame := frameIn(t, enc, func(f *binFramer, enc wireEnc) error {
			return f.replyError(enc, errors.New("boom"))
		})
		// The envelope form of the same error: on a binary connection it rides
		// a kind-0 frame; on a JSON one the envelope is the error frame.
		wrappedError := frameIn(t, enc, func(f *binFramer, enc wireEnc) error {
			return f.writeJSON(enc, KindError, ErrorBody{Message: "boom"})
		})
		// A request kind is a reply no verb wants.
		wrongKind := frameIn(t, enc, func(f *binFramer, enc wireEnc) error {
			if enc == encBinary {
				return f.writeQuery(QueryRequest{Channel: "p_node"})
			}
			return f.writeJSON(enc, KindQuery, QueryRequest{Channel: "p_node"})
		})
		for _, verb := range agentVerbs() {
			expected := frameIn(t, enc, verb.reply)
			for _, col := range []struct {
				name  string
				reply []byte
				want  int
			}{
				{"expected", expected, ok},
				{"error-frame", errorFrame, rejected},
				{"wrapped-error", wrappedError, rejected},
				{"wrong-kind", wrongKind, protocol},
				{"truncated-payload", shortPayload(expected), protocol},
				{"oversized-prefix", []byte{0xFF, 0xFF, 0xFF, 0xFF}, protocol},
			} {
				t.Run(codec+"/"+verb.name+"/"+col.name, func(t *testing.T) {
					client, server := net.Pipe()
					a := scriptAgent(client, codec == CodecBinary)
					replies := [][]byte{col.reply}
					if col.want == rejected {
						replies = append(replies, expected) // the connection must still work
					}
					done := make(chan struct{})
					defer func() { // on every path, the peer is gone before the subtest is
						client.Close()
						server.Close()
						<-done
					}()
					go func() {
						defer close(done)
						scriptedPeer(t, server, func(req []byte) {
							if codec == CodecBinary && req[0] != verb.reqKind {
								t.Errorf("request frame kind %d, want %d", req[0], verb.reqKind)
							}
						}, replies...)
					}()
					_, err := verb.call(a)
					var se *ServiceError
					switch col.want {
					case ok:
						if err != nil {
							t.Fatalf("err = %v, want nil", err)
						}
					case rejected:
						if !errors.As(err, &se) || se.Message != "boom" {
							t.Fatalf("err = %v, want a *ServiceError carrying the bare message", err)
						}
						if _, err := verb.call(a); err != nil {
							t.Fatalf("connection unusable after a rejection: %v", err)
						}
					case protocol:
						if err == nil || errors.As(err, &se) {
							t.Fatalf("err = %v, want a protocol error", err)
						}
						if col.name == "oversized-prefix" && !errors.Is(err, ErrFrameTooLarge) {
							t.Fatalf("err = %v, want ErrFrameTooLarge", err)
						}
					}
				})
			}
		}
	}
}

// FuzzAgentReply is FuzzServeConn's client mirror: arbitrary bytes arrive as
// the reply to each verb on each codec. The agent never panics, reads no
// frame past DefaultMaxFrame, and never decodes a reply into more elements
// than the bytes that carried them.
func FuzzAgentReply(f *testing.F) {
	verbs := agentVerbs()
	for _, enc := range []wireEnc{encJSON, encBinary} {
		for i, verb := range verbs {
			f.Add(uint8(i), enc == encBinary, frameIn(f, enc, verb.reply))
		}
		boom := frameIn(f, enc, func(g *binFramer, enc wireEnc) error { return g.replyError(enc, errors.New("boom")) })
		f.Add(uint8(0), enc == encBinary, boom)
		f.Add(uint8(2), enc == encBinary, shortPayload(frameIn(f, enc, verbs[2].reply)))
		f.Add(uint8(1), enc == encBinary, []byte{0xFF, 0xFF, 0xFF, 0xFF})
		f.Add(uint8(3), enc == encBinary, []byte{})
	}
	// The 16-byte raw point answering Query, whole and cut short.
	raw := frameIn(f, encBinary, func(g *binFramer, enc wireEnc) error { return g.replySeries(enc, rawSeriesBody()) })
	f.Add(uint8(2), true, raw)
	f.Add(uint8(2), true, shortPayload(raw))
	// testdata/fuzz/FuzzAgentReply holds the hand-built adversarial replies:
	// counts that overclaim the frame, bad flag bits, trailing bytes, the
	// reserved kind, envelopes in the wrong framing.

	f.Fuzz(func(t *testing.T, verb uint8, bin bool, reply []byte) {
		a := scriptAgent(&scriptConn{in: bytes.NewReader(reply)}, bin)
		decoded, err := verbs[int(verb)%len(verbs)].call(a)
		if err == nil && decoded > len(reply) {
			t.Fatalf("a %d-byte reply decoded to %d elements", len(reply), decoded)
		}
		if len(a.f.rbuf) > DefaultMaxFrame {
			t.Fatalf("read scratch grew to %d bytes, cap %d", len(a.f.rbuf), DefaultMaxFrame)
		}
	})
}
