package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"highrpm/internal/leaktest"
	"highrpm/internal/tsdb"
)

// pipeFramer builds a framer whose writes land in buf (read side unset;
// tests wire it per use).
func pipeFramer(buf *bytes.Buffer) *binFramer {
	return newBinFramer(bufio.NewReader(bytes.NewReader(nil)), bufio.NewWriter(buf), DefaultMaxFrame)
}

// encodeBinFrame encodes one message through the framer's write methods and
// returns the complete frame bytes (length prefix included).
func encodeBinFrame(t testing.TB, write func(f *binFramer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	f := pipeFramer(&buf)
	if err := write(f); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := f.w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replySeries frames body as a series reply the way the serve loop does
// for a handler: through SeriesWriter, the one series encoder.
func (f *binFramer) replySeries(body SeriesBody) error {
	return f.replySeriesAs(binKindRawSeries, body)
}

// replySeriesAs is replySeries with the frame's first kind given:
// binKindRawSeries is the serve loop's writer, binKindSeries the kind-5
// encoder — a writer widened before its first point.
func (f *binFramer) replySeriesAs(kind byte, body SeriesBody) error {
	w := SeriesWriter{f: f}
	w.Begin(body.NodeID, body.Channel, body.ResolutionS, len(body.Points))
	if kind == binKindSeries {
		w.widen()
	}
	for _, p := range body.StorePoints() {
		w.Point(p)
	}
	return w.finish()
}

// clonePtr copies an optional value out of framer scratch.
func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// decodeBinPayload dispatches one payload to the kind's decoder, returning
// false when the kind has no native decoder. On success it returns a
// re-encode function that must reproduce the frame byte-for-byte.
func decodeBinPayload(f *binFramer, kind byte, payload []byte) (func(g *binFramer) error, bool, error) {
	switch kind {
	case binKindQuery:
		q, err := f.readQuery(payload)
		if err != nil {
			return nil, true, err
		}
		return func(g *binFramer) error { return g.writeQuery(q) }, true, nil
	case binKindSeries, binKindRawSeries:
		body, err := f.readSeries(kind, payload)
		if err != nil {
			return nil, true, err
		}
		// Kind 9 is what the writer sends while every point is raw; kind 5
		// what the kind-5 encoder writes for any points.
		return func(g *binFramer) error { return g.replySeriesAs(kind, body) }, true, nil
	case binKindError:
		msg, err := f.readError(payload)
		if err != nil {
			return nil, true, err
		}
		return func(g *binFramer) error { return g.writeError(msg) }, true, nil
	case binKindRecordBatch:
		rb, err := f.readRecordBatch(payload)
		if err != nil {
			return nil, true, err
		}
		// Copy out of the framer scratch: the re-encode runs after further
		// framer use in some tests.
		node := rb.NodeID
		samples := make([]BatchSample, len(rb.Samples))
		for i, s := range rb.Samples {
			samples[i] = BatchSample{Time: s.Time, PMC: append([]float64(nil), s.PMC...),
				Measured: clonePtr(s.Measured), Relayed: clonePtr(s.Relayed)}
		}
		return func(g *binFramer) error { return g.writeRecordBatch(node, samples) }, true, nil
	case binKindEstimateBatch:
		ests, err := f.readEstimateBatch(payload, nil)
		if err != nil {
			return nil, true, err
		}
		return func(g *binFramer) error { return g.writeEstimateBatch(ests) }, true, nil
	}
	return nil, false, nil
}

// FuzzBinaryEnvelopeRoundTrip is the binary codec's round-trip law: for
// every payload a decoder accepts, re-encoding the decoded message must
// reproduce the original frame byte-for-byte (the encodings are canonical
// — decoders reject non-canonical flag bytes rather than normalise them).
func FuzzBinaryEnvelopeRoundTrip(f *testing.F) {
	meas := 90.5
	seeds := [][]byte{
		// An empty batch: any peer can send one, and it must round-trip.
		encodeBinFrame(f, func(g *binFramer) error { return g.writeRecordBatch("ghost", nil) }),
		oneSample(f, "node-a", 1.5, []float64{1e9, 2e9, math.NaN()}, &meas, nil),
		encodeBinFrame(f, func(g *binFramer) error {
			return g.writeEstimateBatch([]Estimate{{NodeID: "n", Time: 2, PNode: 90, PCPU: 40, PMEM: 12, FromMeasurement: true}})
		}),
		encodeBinFrame(f, func(g *binFramer) error {
			return g.writeQuery(QueryRequest{NodeID: "n", Channel: "p_node", From: 0, To: 100, ResolutionS: 10})
		}),
		encodeBinFrame(f, func(g *binFramer) error {
			return g.replySeries(SeriesBody{Channel: "p_node", ResolutionS: 1, Points: []SeriesPoint{
				{Time: 1, Value: 90, Min: 90, Max: 90, Count: 1},
				{Time: 2, Value: NullFloat(math.NaN()), Min: NullFloat(math.Inf(1)), Count: 0},
			}})
		}),
		encodeBinFrame(f, func(g *binFramer) error { return g.writeError("boom") }),
		encodeBinFrame(f, func(g *binFramer) error {
			return g.writeRecordBatch("node-b", []BatchSample{
				{Time: 1, PMC: []float64{1, 2}},
				{Time: 2, PMC: []float64{3, 4}, Measured: &meas},
			})
		}),
		encodeBinFrame(f, func(g *binFramer) error {
			return g.writeEstimateBatch([]Estimate{{NodeID: "n", Time: 1, PNode: 90}, {NodeID: "n", Time: 2, Local: true}})
		}),
	}
	for _, frame := range seeds {
		// Seeds are whole frames; the fuzz input is (kind, payload).
		f.Add(frame[4], frame[5:])
	}
	f.Add(byte(250), []byte{})                     // unknown kind
	f.Add(binKindRecordBatch, []byte{})            // truncated
	f.Add(binKindError, []byte{0, 0, 0, 200, 'x'}) // claims more than it has
	// Relayed estimates (added after the seeds above so those keep their
	// numbers): a sample with one riding on it, with and without the IM
	// reading — NaN estimates survive as bit patterns — and a batch as a
	// router forwards it to a follower, relayed and plain samples mixed.
	for _, frame := range [][]byte{
		oneSample(f, "node-a", 1.5, []float64{1e9, 2e9}, &meas, &RelayedEstimate{PNode: 90.5, PCPU: 40, PMEM: 12, FromMeasurement: true}),
		oneSample(f, "node-a", 2.5, []float64{1e9}, nil, &RelayedEstimate{PNode: 88, PCPU: math.NaN(), PMEM: 11}),
		encodeBinFrame(f, func(g *binFramer) error {
			return g.writeRecordBatch("node-b", []BatchSample{
				{Time: 1, PMC: []float64{1, 2}, Relayed: &RelayedEstimate{PNode: 87, PCPU: 39, PMEM: 10}},
				{Time: 2, PMC: []float64{3, 4}, Measured: &meas, Relayed: &RelayedEstimate{PNode: 90.5, PCPU: 40, PMEM: 12, FromMeasurement: true}},
				{Time: 3, PMC: []float64{5, 6}},
			})
		}),
	} {
		f.Add(frame[4], frame[5:])
	}
	// The 16-byte raw point: a raw series with a NaN payload and a −0, and
	// an empty one.
	for _, frame := range [][]byte{
		encodeBinFrame(f, func(g *binFramer) error { return g.replySeries(rawSeriesBody()) }),
		encodeBinFrame(f, func(g *binFramer) error {
			return g.replySeries(SeriesBody{NodeID: "n", Channel: "ipmi", ResolutionS: 1})
		}),
	} {
		f.Add(frame[4], frame[5:])
	}

	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		fr := newBinFramer(bufio.NewReader(bytes.NewReader(nil)), nil, DefaultMaxFrame)
		reencode, known, err := decodeBinPayload(fr, kind, payload)
		if !known || err != nil {
			return
		}
		frame := encodeBinFrame(t, reencode)
		if frame[4] != kind || !bytes.Equal(frame[5:], payload) {
			t.Fatalf("re-encode of kind %d changed the payload:\n in:  %x\n out: %x", kind, payload, frame[5:])
		}
	})
}

// rawSeriesBody is a raw series as a store sends it: every point's Min and
// Max are its Value, Count 1, a NaN with a payload and a −0 among them.
func rawSeriesBody() SeriesBody {
	pts := []SeriesPoint{}
	for i, v := range []float64{90, math.Float64frombits(0x7ff8000000000001), math.Copysign(0, -1), 88.25} {
		pts = append(pts, SeriesPoint{Time: float64(i + 1), Value: NullFloat(v), Min: NullFloat(v), Max: NullFloat(v), Count: 1})
	}
	return SeriesBody{NodeID: "cn0001", Channel: "p_node", ResolutionS: 1, Points: pts}
}

// sameSeriesBits compares two series bodies bit for bit, NaN payloads
// included.
func sameSeriesBits(a, b SeriesBody) error {
	if a.NodeID != b.NodeID || a.Channel != b.Channel || a.ResolutionS != b.ResolutionS || len(a.Points) != len(b.Points) {
		return fmt.Errorf("header %q/%q/%d with %d points against %q/%q/%d with %d", a.NodeID, a.Channel, a.ResolutionS, len(a.Points),
			b.NodeID, b.Channel, b.ResolutionS, len(b.Points))
	}
	bits := func(v NullFloat) uint64 { return math.Float64bits(float64(v)) }
	for i, p := range a.Points {
		q := b.Points[i]
		if math.Float64bits(p.Time) != math.Float64bits(q.Time) || bits(p.Value) != bits(q.Value) ||
			bits(p.Min) != bits(q.Min) || bits(p.Max) != bits(q.Max) || p.Count != q.Count {
			return fmt.Errorf("point %d: %+v against %+v", i, p, q)
		}
	}
	return nil
}

// FuzzSeriesShape is the law the router's verbatim relay stands on, for
// both series layouts (kind 5 and kind 9): the O(1) framing check accepts
// a payload exactly when the strict point-by-point decoder does. For every
// accepted payload the readers then agree: the points-only decode yields
// the body's points bit for bit, a binary writer relays the payload as it
// is, and the writer and the kind-5 encoder both re-encode the decoded body
// to a frame that decodes to the same body bit for bit.
func FuzzSeriesShape(f *testing.F) {
	// testdata/fuzz/FuzzSeriesShape holds the named cases: for kind 5 a
	// valid raw series (the frame raw points had before kind 9) and a valid
	// rollup (NaN buckets included), the same raw payload with its count one
	// too large and one too small, a truncated header, a trailing byte; for
	// kind 9 the raw series again and the same four corruptions. Here: a
	// series without points in each kind, and nothing.
	for _, kind := range []byte{binKindSeries, binKindRawSeries} {
		empty := encodeBinFrame(f, func(g *binFramer) error {
			return g.replySeriesAs(kind, SeriesBody{NodeID: "empty", Channel: "p_node", ResolutionS: 1})
		})
		f.Add(empty[4], empty[5:])
	}
	f.Add(binKindSeries, []byte{})
	f.Add(binKindRawSeries, []byte{})

	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		if kind != binKindSeries && kind != binKindRawSeries {
			return
		}
		fr := newBinFramer(nil, nil, DefaultMaxFrame)
		at, n, shapeErr := seriesShape(kind, payload)
		body, readErr := fr.readSeries(kind, payload)
		if (shapeErr == nil) != (readErr == nil) {
			t.Fatalf("kind %d: seriesShape says %v, readSeries says %v", kind, shapeErr, readErr)
		}
		if shapeErr != nil {
			return
		}
		if n != len(body.Points) || at+n*pointLen(kind) != len(payload) {
			t.Fatalf("kind %d shape: %d points from offset %d of %d bytes; decoder read %d", kind, n, at, len(payload), len(body.Points))
		}
		rep := &SeriesReply{f: fr, msg: wireMsg{enc: encBinary, kind: KindSeries, binKind: kind, payload: payload}}
		relayed := encodeBinFrame(t, func(g *binFramer) error {
			w := SeriesWriter{f: g}
			if err := w.Relay(rep); err != nil {
				t.Fatalf("relay of an accepted kind-%d payload: %v", kind, err)
			}
			return w.finish()
		})
		if relayed[4] != kind || !bytes.Equal(relayed[5:], payload) {
			t.Fatalf("kind %d relayed as kind %d %x", kind, relayed[4], relayed[5:])
		}
		for _, start := range []byte{binKindSeries, binKindRawSeries} {
			reencoded := encodeBinFrame(t, func(g *binFramer) error { return g.replySeriesAs(start, body) })
			if err := sameSeriesBits(decodeFrameBody(t, reencoded[framePrefix:]), body); err != nil {
				t.Fatalf("kind %d re-encoded from kind %d decodes to another body: %v", kind, start, err)
			}
		}
		pts, err := rep.AppendPoints(nil)
		if err != nil || len(pts) != len(body.Points) {
			t.Fatalf("AppendPoints: %d points, err %v, want %d", len(pts), err, len(body.Points))
		}
		bits := math.Float64bits
		for i, want := range body.StorePoints() {
			if got := pts[i]; bits(got.Time) != bits(want.Time) || bits(got.Value) != bits(want.Value) ||
				bits(got.Min) != bits(want.Min) || bits(got.Max) != bits(want.Max) || got.Count != want.Count {
				t.Fatalf("point %d: AppendPoints %+v, readSeries %+v", i, got, want)
			}
		}
	})
}

// FuzzCrossCodecSample pins the two codecs to each other. A single sample —
// with or without an IM reading, with or without a relayed estimate —
// travels over JSON as a Sample and over binary as a RecordBatch of one.
// The binary batch must decode to bit-identical fields regardless, alone
// and beside its plain twin. JSON cannot carry non-finite floats (WriteMsg
// fails) or invalid UTF-8, so the rest applies when it carries the values:
// the JSON decode agrees with the binary one, and a fresh Service behind
// each codec answers the same estimate bit for bit, or refuses the sample
// with the same error text. The sample carries the model's ten counters,
// the first three fuzzed, so the estimate path runs.
func FuzzCrossCodecSample(f *testing.F) {
	f.Add("node-1", 1.5, 1e9, 2e9, 3e9, true, 90.5, false, 0.0, 0.0, 0.0, false)
	f.Add("", 0.0, 0.0, 0.0, 0.0, false, 0.0, false, 0.0, 0.0, 0.0, false)
	f.Add("n", math.Inf(1), math.NaN(), -1e308, 5e-324, false, 0.0, false, 0.0, 0.0, 0.0, false)
	f.Add("node-\xff", -3.25, 7.0, 8.0, 9.0, true, math.NaN(), false, 0.0, 0.0, 0.0, false)
	f.Add("node-1", 1.5, 1e9, 2e9, 3e9, true, 90.5, true, 90.5, 40.0, 12.0, true)
	f.Add("node-2", 2.5, 1e9, 2e9, 3e9, false, 0.0, true, 88.0, 39.0, 11.0, false)
	f.Add("n", 0.0, 1.0, 2.0, 3.0, false, 0.0, true, math.NaN(), math.Inf(-1), math.Copysign(0, -1), false)
	// Refused alike in both codecs: a reading beyond ±1 MW (the monitor's
	// refusal) and a node ID no store can keep (a *ServiceError).
	f.Add("node-3", 4.0, 1e9, 2e9, 3e9, true, 2e6, false, 0.0, 0.0, 0.0, false)
	f.Add(strings.Repeat("n", 300), 5.0, 1e9, 2e9, 3e9, false, 0.0, false, 0.0, 0.0, 0.0, false)

	model := sharedModel(f)
	f.Fuzz(func(t *testing.T, node string, tm, p0, p1, p2 float64, hasMeasured bool, m float64,
		hasRelayed bool, rn, rc, rm float64, relFromMeasurement bool) {
		if len(node) > math.MaxUint16 {
			return
		}
		// The model's full feature width, so a sample JSON carries gets an
		// estimate: the fuzzed counters lead, the rest are benchPMC's.
		want := BatchSample{Time: tm, PMC: append([]float64{p0, p1, p2}, benchPMC()[3:]...)}
		if hasMeasured {
			want.Measured = &m
		}
		if hasRelayed {
			want.Relayed = &RelayedEstimate{PNode: rn, PCPU: rc, PMEM: rm, FromMeasurement: relFromMeasurement}
		}
		plain := BatchSample{Time: tm, PMC: want.PMC, Measured: want.Measured}
		bits := math.Float64bits
		check := func(what, decNode string, dec, want BatchSample) {
			if decNode != node {
				t.Fatalf("%s node: wrote %q read %q", what, node, decNode)
			}
			if bits(dec.Time) != bits(want.Time) {
				t.Fatalf("%s time: wrote %x read %x", what, bits(want.Time), bits(dec.Time))
			}
			if len(dec.PMC) != len(want.PMC) {
				t.Fatalf("%s pmc length: wrote %d read %d", what, len(want.PMC), len(dec.PMC))
			}
			for i := range want.PMC {
				if bits(dec.PMC[i]) != bits(want.PMC[i]) {
					t.Fatalf("%s pmc[%d]: wrote %x read %x", what, i, bits(want.PMC[i]), bits(dec.PMC[i]))
				}
			}
			if (dec.Measured != nil) != (want.Measured != nil) {
				t.Fatalf("%s measured presence: wrote %v read %v", what, want.Measured != nil, dec.Measured != nil)
			}
			if want.Measured != nil && bits(*dec.Measured) != bits(*want.Measured) {
				t.Fatalf("%s measured: wrote %x read %x", what, bits(*want.Measured), bits(*dec.Measured))
			}
			if (dec.Relayed != nil) != (want.Relayed != nil) {
				t.Fatalf("%s relayed presence: wrote %v read %v", what, want.Relayed != nil, dec.Relayed != nil)
			}
			if w, d := want.Relayed, dec.Relayed; w != nil && (bits(d.PNode) != bits(w.PNode) || bits(d.PCPU) != bits(w.PCPU) ||
				bits(d.PMEM) != bits(w.PMEM) || d.FromMeasurement != w.FromMeasurement) {
				t.Fatalf("%s relayed: wrote %+v read %+v", what, *w, *d)
			}
		}

		// Binary path: must always round-trip bit-exactly.
		readBatch := func(frame []byte, n int) *RecordBatch {
			fr := newBinFramer(bufio.NewReader(bytes.NewReader(frame)), nil, DefaultMaxFrame)
			kind, payload, err := fr.readFrame()
			if err != nil || kind != binKindRecordBatch {
				t.Fatalf("binary frame read: kind %d err %v", kind, err)
			}
			rb, err := fr.readRecordBatch(payload)
			if err != nil || len(rb.Samples) != n {
				t.Fatalf("binary batch decode: %d samples, err %v, want %d", len(rb.Samples), err, n)
			}
			return rb
		}
		binSample := oneSample(t, node, tm, want.PMC, want.Measured, want.Relayed)
		rb := readBatch(binSample, 1)
		check("binary batch of one", rb.NodeID, rb.Samples[0], want)
		rb = readBatch(encodeBinFrame(t, func(g *binFramer) error {
			return g.writeRecordBatch(node, []BatchSample{want, plain})
		}), 2)
		check("binary batch[0]", rb.NodeID, rb.Samples[0], want)
		check("binary batch[1]", rb.NodeID, rb.Samples[1], plain)

		// JSON path: agree with the binary decode whenever JSON can carry
		// the values at all (NaN/Inf and invalid-UTF-8 node IDs cannot ride
		// JSON losslessly).
		var buf bytes.Buffer
		smp := Sample{NodeID: node, Time: tm, PMC: want.PMC, Measured: want.Measured, Relayed: want.Relayed}
		if err := WriteMsg(&buf, KindSample, smp); err != nil {
			return
		}
		jsonSample := bytes.Clone(buf.Bytes())
		env, err := ReadMsgLimit(bufio.NewReader(&buf), DefaultMaxFrame)
		if err != nil {
			t.Fatalf("JSON read after write: %v", err)
		}
		var jdec Sample
		if err := DecodeBody(env, &jdec); err != nil {
			t.Fatalf("JSON decode: %v", err)
		}
		if jdec.NodeID != node {
			return // JSON coerced invalid UTF-8; codecs legitimately differ
		}
		check("json sample", jdec.NodeID, BatchSample{Time: jdec.Time, PMC: jdec.PMC, Measured: jdec.Measured, Relayed: jdec.Relayed}, want)

		// Same answers: the sample alone on a fresh service, once per codec.
		answer := func(codecs []string, frame []byte) (est Estimate, refusal string) {
			svc := NewService(model)
			svc.Logf = t.Logf
			defer svc.Close()
			replies, _ := serveScript(t, serviceHandler{svc}, scriptStream(t, codecs, frame), DefaultMaxFrame)
			if len(replies) != 2 {
				t.Fatalf("codecs %v: %d replies, want the Hello's and the sample's", codecs, len(replies))
			}
			rep := replies[1]
			g := newBinFramer(nil, nil, DefaultMaxFrame)
			if codecs != nil {
				switch rep[0] {
				case binKindEstimateBatch:
					ests, err := g.readEstimateBatch(rep[1:], nil)
					if err != nil || len(ests) != 1 {
						t.Fatalf("binary reply: %d estimates, err %v", len(ests), err)
					}
					return ests[0], ""
				case binKindError:
					msg, err := g.readError(rep[1:])
					if err != nil {
						t.Fatal(err)
					}
					return Estimate{}, msg
				}
				t.Fatalf("binary reply of kind %d", rep[0])
			}
			var env Envelope
			if err := json.Unmarshal(rep, &env); err != nil {
				t.Fatalf("JSON reply %q: %v", rep, err)
			}
			var eb ErrorBody
			var err error
			switch env.Kind {
			case KindEstimate:
				err = DecodeBody(env, &est)
			case KindError:
				err = DecodeBody(env, &eb)
			default:
				t.Fatalf("JSON reply of kind %q", env.Kind)
			}
			if err != nil {
				t.Fatal(err)
			}
			return est, eb.Message
		}
		jest, jerr := answer(nil, jsonSample)
		best, berr := answer([]string{CodecBinary}, binSample)
		if jerr != berr || !sameWireEstimate(jest, best) {
			t.Fatalf("JSON answered %+v / %q, binary %+v / %q", jest, jerr, best, berr)
		}
	})
}

// TestCodecNegotiation pins the handshake outcomes: a binary offer against
// this service lands on binary, a JSON dial stays JSON, and both speak to
// the same service concurrently.
func TestCodecNegotiation(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	bin, err := Dial(svc.Addr(), "node-bin")
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	if bin.Codec() != CodecBinary {
		t.Fatalf("default dial negotiated %q, want binary", bin.Codec())
	}
	js, err := DialCodec(svc.Addr(), "node-json", CodecJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer js.Close()
	if js.Codec() != CodecJSON {
		t.Fatalf("JSON dial negotiated %q", js.Codec())
	}
	st, err := bin.Stats()
	if err != nil {
		t.Fatalf("stats over binary: %v", err)
	}
	if st.BinConns < 1 {
		t.Fatalf("service counted %d binary connections, want >= 1", st.BinConns)
	}
	if _, err := bin.FetchModel(); err != nil {
		t.Fatalf("model fetch over binary: %v", err)
	}
}

// TestCodecInteropByteIdentical drives two agents — one per codec — with
// the same deterministic sample stream and requires identical estimates,
// then reads both nodes' stored series back over binary, the only codec a
// series travels in, and requires their JSON renderings to match
// byte-for-byte, node ID aside. This is the acceptance gate for the binary
// codec: framing changed, results did not.
func TestCodecInteropByteIdentical(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	bin, err := DialCodec(svc.Addr(), "node-bin", CodecBinary, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	js, err := DialCodec(svc.Addr(), "node-json", CodecJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer js.Close()

	pmc := benchPMC()
	for i := 0; i < 40; i++ {
		tm := float64(i)
		for j := range pmc {
			pmc[j] = 1e9 + float64(i*7+j)*1e6
		}
		var measured *float64
		if i%5 == 0 {
			v := 90 + float64(i)*0.25
			measured = &v
		}
		be, err := bin.Send(tm, pmc, measured)
		if err != nil {
			t.Fatalf("binary send %d: %v", i, err)
		}
		je, err := js.Send(tm, pmc, measured)
		if err != nil {
			t.Fatalf("json send %d: %v", i, err)
		}
		// Identical inputs through identical per-node monitors: every field
		// must agree bit-for-bit across codecs.
		if math.Float64bits(be.PNode) != math.Float64bits(je.PNode) ||
			math.Float64bits(be.PCPU) != math.Float64bits(je.PCPU) ||
			math.Float64bits(be.PMEM) != math.Float64bits(je.PMEM) ||
			be.FromMeasurement != je.FromMeasurement {
			t.Fatalf("sample %d: binary estimate %+v != json estimate %+v", i, be, je)
		}
	}

	// What each codec's stream stored must render to the same JSON bytes,
	// at raw and rollup resolutions.
	for _, req := range []QueryRequest{
		{NodeID: "node-bin", Channel: "p_node", From: 0, To: 100},
		{NodeID: "node-bin", Channel: "ipmi", From: 0, To: 100},
		{NodeID: "node-bin", Channel: "p_cpu", From: 0, To: 100, ResolutionS: 10},
	} {
		bb, err := bin.Query(req)
		if err != nil {
			t.Fatalf("binary node's query %+v: %v", req, err)
		}
		req.NodeID = "node-json"
		jb, err := bin.Query(req)
		if err != nil {
			t.Fatalf("json node's query %+v: %v", req, err)
		}
		jb.NodeID = bb.NodeID
		bjson, err := json.Marshal(bb)
		if err != nil {
			t.Fatal(err)
		}
		jjson, err := json.Marshal(jb)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bjson, jjson) {
			t.Fatalf("query %+v not byte-identical across codecs:\n binary: %s\n json:   %s", req, bjson, jjson)
		}
		if len(bb.Points) == 0 {
			t.Fatalf("query %+v returned no points", req)
		}
	}
}

// TestRecordBatch runs the batched ingest path: Record coalesces, the
// flush returns one estimate per sample in order, and the estimates equal
// what unbatched Sends in either codec produce for the same stream. The
// batches are binary on both legs, the only codec that carries them.
func TestRecordBatch(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	for _, codec := range []string{CodecBinary, CodecJSON} {
		t.Run(codec, func(t *testing.T) {
			batched, err := DialCodec(svc.Addr(), "batch-"+codec, CodecBinary, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer batched.Close()
			batched.SetBatching(BatchOptions{MaxSamples: 4})
			single, err := DialCodec(svc.Addr(), "single-"+codec, codec, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer single.Close()

			pmc := benchPMC()
			var fromBatch, fromSingle []Estimate
			for i := 0; i < 10; i++ {
				tm := float64(i)
				for j := range pmc {
					pmc[j] = 1e9 + float64(i*13+j)*1e6
				}
				var measured *float64
				if i%3 == 0 {
					v := 88 + float64(i)
					measured = &v
				}
				ests, err := batched.Record(tm, pmc, measured)
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if i%4 != 3 && ests != nil {
					t.Fatalf("record %d flushed early: %d estimates", i, len(ests))
				}
				fromBatch = append(fromBatch, ests...)
				se, err := single.Send(tm, pmc, measured)
				if err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				fromSingle = append(fromSingle, se)
			}
			tail, err := batched.Flush()
			if err != nil {
				t.Fatal(err)
			}
			fromBatch = append(fromBatch, tail...)
			if len(fromBatch) != len(fromSingle) {
				t.Fatalf("batched path returned %d estimates, single path %d", len(fromBatch), len(fromSingle))
			}
			for i := range fromBatch {
				b, s := fromBatch[i], fromSingle[i]
				if math.Float64bits(b.PNode) != math.Float64bits(s.PNode) ||
					math.Float64bits(b.PCPU) != math.Float64bits(s.PCPU) ||
					math.Float64bits(b.PMEM) != math.Float64bits(s.PMEM) ||
					b.Time != s.Time || b.FromMeasurement != s.FromMeasurement {
					t.Fatalf("estimate %d: batched %+v != single %+v", i, b, s)
				}
			}
		})
	}
	st := svc.Stats()
	if st.Batches < 4 || st.BatchSamples < 20 {
		t.Fatalf("batch accounting: %d batches, %d samples", st.Batches, st.BatchSamples)
	}
}

// TestServiceCountsSendAsBatchOfOne: a single sample is a batch of one to
// the service whichever codec carried it, so N Sends read Batches ==
// BatchSamples == N.
func TestServiceCountsSendAsBatchOfOne(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	const perCodec = 5
	pmc := benchPMC()
	for _, codec := range []string{CodecBinary, CodecJSON} {
		ag, err := DialCodec(svc.Addr(), "count-"+codec, codec, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perCodec; i++ {
			if _, err := ag.Send(float64(i), pmc, nil); err != nil {
				t.Fatalf("%s send %d: %v", codec, i, err)
			}
		}
		ag.Close()
	}
	if st := svc.Stats(); st.Batches != 2*perCodec || st.BatchSamples != 2*perCodec || st.Samples != 2*perCodec {
		t.Fatalf("%d sends counted as %d batches of %d samples (%d samples in all)", 2*perCodec, st.Batches, st.BatchSamples, st.Samples)
	}
}

// TestResilientBatchDegradedReplay: a ResilientAgent whose service dies
// must serve SendSamples batches locally, keep the samples in order in the
// replay buffer, and deliver the whole backlog in order, before anything
// newer, once a service returns.
func TestResilientBatchDegradedReplay(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(sharedModel(t))
	svc.Logf = t.Logf
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := svc.Addr()
	opts := DefaultAgentOptions()
	opts.DialTimeout = 500 * time.Millisecond
	opts.RequestTimeout = 500 * time.Millisecond
	opts.BackoffMin = time.Millisecond
	opts.BackoffMax = 10 * time.Millisecond
	ra := NewResilientAgent(addr, "node-batch-ft", opts, sharedModel(t))
	defer ra.Close()

	if ests, err := ra.SendSamples(nil, nil); ests != nil || err != nil {
		t.Fatalf("empty batch: %v, %v", ests, err)
	}
	// Batch k carries seconds 3k, 3k+1, 3k+2 in one reused buffer, as the
	// router's serve loop hands over its framer scratch.
	pmc := benchPMC()
	batch := make([]BatchSample, 3)
	send := func(k int) []Estimate {
		t.Helper()
		for j := range batch {
			batch[j] = BatchSample{Time: float64(3*k + j), PMC: pmc}
		}
		ests, err := ra.SendSamples(batch, nil)
		if err != nil {
			t.Fatalf("batch %d: %v", k, err)
		}
		if len(ests) != len(batch) {
			t.Fatalf("batch %d: %d estimates, want %d", k, len(ests), len(batch))
		}
		for j := range batch {
			batch[j] = BatchSample{Time: -1, PMC: []float64{-1}}
		}
		return ests
	}
	for k := 0; k < 2; k++ {
		for _, e := range send(k) {
			if e.Local {
				t.Fatal("live batch served locally while the service was up")
			}
		}
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	for k := 2; k < 4; k++ {
		for _, e := range send(k) {
			if !e.Local {
				t.Fatalf("outage estimate not local: %+v", e)
			}
		}
	}
	if ra.Pending() != 6 {
		t.Fatalf("%d samples pending replay, want 6", ra.Pending())
	}

	svc2 := NewService(sharedModel(t))
	svc2.Logf = t.Logf
	if err := svc2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { svc2.Close() })
	// The agent redials from inside SendSamples once its backoff (at most
	// BackoffMax) has run out, so the loop is bounded by wall time and paced
	// by it: a degraded batch is three local inferences, a few microseconds,
	// and a loop bounded by a count could end inside a single backoff delay.
	deadline := time.Now().Add(5 * time.Second)
	k := 4
	for ; ra.Degraded() || ra.Pending() > 0; k++ {
		if time.Now().After(deadline) {
			t.Fatalf("agent never recovered: degraded %v, %d pending", ra.Degraded(), ra.Pending())
		}
		send(k)
		time.Sleep(opts.BackoffMin)
	}
	// The recovery loop keeps sending while degraded, so more than the
	// original 6 samples pass through the buffer; what matters is that the
	// whole backlog replays and nothing is lost. The restarted service
	// refuses a sample older than its newest, so a live batch overtaking
	// the replay would show as a drop and a gap in its history.
	c := ra.Counters()
	if c.Replayed < 6 || c.Replayed != c.Buffered || c.Dropped != 0 {
		t.Fatalf("replay incomplete: %+v", c)
	}
	got, err := svc2.Store().QuerySeries("node-batch-ft", "p_node", 0, float64(3*k), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 3*(k-2) {
		t.Fatalf("restarted service holds %d points, want the %d from t=6 on", len(got.Points), 3*(k-2))
	}
	for i, p := range got.Points {
		if p.Time != float64(6+i) {
			t.Fatalf("restarted service's point %d is t=%g, want %d", i, p.Time, 6+i)
		}
	}
}

// TestBinaryCodecZeroAlloc is the allocation-regression guard for the
// binary record path: one steady-state encode → frame read → decode of a
// sample, a record batch of one, must not allocate at all. Everything lives
// in the framer scratch — the write buffer, the read buffer, the PMC slice,
// the interned node.
func TestBinaryCodecZeroAlloc(t *testing.T) {
	leaktest.Check(t)
	pmc := benchPMC()
	meas := 90.5
	var buf bytes.Buffer
	fw := pipeFramer(&buf)
	br := bytes.NewReader(nil)
	rr := bufio.NewReader(br)
	fr := newBinFramer(rr, nil, DefaultMaxFrame)

	one := []BatchSample{{Time: 42.5, PMC: pmc, Measured: &meas}}
	iter := func() {
		buf.Reset()
		fw.w.Reset(&buf)
		if err := fw.writeRecordBatch("node-alloc", one); err != nil {
			t.Fatal(err)
		}
		if err := fw.w.Flush(); err != nil {
			t.Fatal(err)
		}
		br.Reset(buf.Bytes())
		rr.Reset(br)
		kind, payload, err := fr.readFrame()
		if err != nil || kind != binKindRecordBatch {
			t.Fatalf("frame: kind %d err %v", kind, err)
		}
		rb, err := fr.readRecordBatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		if rb.NodeID != "node-alloc" || len(rb.Samples) != 1 || len(rb.Samples[0].PMC) != len(pmc) {
			t.Fatalf("bad decode: %+v", rb)
		}
	}
	iter() // warm the scratch buffers and the intern slot
	if allocs := testing.AllocsPerRun(200, iter); allocs != 0 {
		t.Fatalf("binary sample round trip allocates %.1f times per op, want 0", allocs)
	}

	// The same guard through the shared serve loop and its Handler
	// interface: request decode, dispatch, handler call and reply framing
	// over a live connection must add nothing per frame. The stub handler
	// answers from the arguments alone, so every allocation counted here
	// would be the loop's own.
	srv := NewServer("test", stubHandler{}, ServiceOptions{}, t.Logf)
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.serveConn(server) }()
	// The client side is a real Agent, so its one roundTrip (flush, shared
	// frame reader, kind check) is under the same guard as the serve loop.
	cf := handshakeBinary(t, client, "node-alloc")
	ag := &Agent{nodeID: "node-alloc", conn: client, f: cf, binary: true}
	batch := []BatchSample{{Time: 1, PMC: pmc}, {Time: 2, PMC: pmc, Measured: &meas}}
	// The follower leg of a replicated write: a sample with the primary's
	// estimate attached, alone and sixteen of them in one batch.
	rel := RelayedEstimate{PNode: 91.5, PCPU: 40, PMEM: 12}
	relayedOne := []BatchSample{{Time: 43.5, PMC: pmc, Relayed: &rel}}
	relayedBatch := make([]BatchSample, 16)
	for i := range relayedBatch {
		relayedBatch[i] = BatchSample{Time: float64(i), PMC: pmc, Relayed: &rel}
	}
	relayedBatch[0].Measured = &meas
	var ests []Estimate
	sendBatch := func(samples []BatchSample) {
		// The reply decodes into a buffer handed back on every call.
		var err error
		if ests, err = ag.sendBatch(samples, ests[:0]); err != nil || len(ests) != len(samples) || ests[len(ests)-1].Time != samples[len(samples)-1].Time {
			t.Fatalf("batch reply: %d estimates, err %v", len(ests), err)
		}
	}
	roundTrip := func() {
		if est, err := ag.Send(42.5, pmc, &meas); err != nil || est.PNode != meas {
			t.Fatalf("sample reply: %+v err %v", est, err)
		}
		// A vector and a reading on the caller's stack stay there: Send
		// keeps no reference to either.
		var vec [10]float64
		copy(vec[:], pmc)
		m := meas
		if est, err := ag.Send(42.5, vec[:], &m); err != nil || est.PNode != meas {
			t.Fatalf("stack-vector sample reply: %+v err %v", est, err)
		}
		sendBatch(batch)
		sendBatch(relayedOne)
		sendBatch(relayedBatch)
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("serve loop allocates %.1f times per sample+batch round trip, plain and relayed, want 0", allocs)
	}
	// A driver's batched stream: sixteen Records, the last of which
	// flushes, queue into the batcher's slots and decode the reply into the
	// agent's scratch. Neither end allocates per batch.
	ag.SetBatching(BatchOptions{MaxSamples: 16})
	tick := 100.0
	record := func() {
		for i := 0; i < 16; i++ {
			tick++
			m := &meas
			if i%4 != 0 {
				m = nil
			}
			ests, err := ag.Record(tick, pmc, m)
			if err != nil || (i < 15) != (ests == nil) {
				t.Fatalf("Record %d: %d estimates, err %v", i, len(ests), err)
			}
			if i == 15 && (len(ests) != 16 || ests[15].Time != tick || ests[0].Time != tick-15) {
				t.Fatalf("flushed batch answers %d estimates ending at %g, want 16 ending at %g", len(ests), ests[len(ests)-1].Time, tick)
			}
		}
	}
	record()
	if allocs := testing.AllocsPerRun(100, record); allocs != 0 {
		t.Fatalf("a 16-sample Record…Flush round trip allocates %.1f times per batch, want 0", allocs)
	}
	ag.SetBatching(BatchOptions{})
	client.Close()
	if err := <-done; err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("serve loop exit: %v", err)
	}

	// A live ResilientAgent.Send is SendSamples of a batch of one on the
	// agent's stack, answered into its one-estimate field: it adds nothing
	// to the round trip, over a real socket with request deadlines armed.
	rsrv := NewServer("test", stubHandler{}, ServiceOptions{}, t.Logf)
	if err := rsrv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	ra := NewResilientAgent(rsrv.Addr(), "node-alloc", DefaultAgentOptions(), sharedModel(t))
	defer ra.Close()
	resilient := func() {
		tick++
		if est, err := ra.Send(tick, pmc, &meas); err != nil || est.Local || est.Time != tick || est.PNode != meas {
			t.Fatalf("resilient send: %+v err %v", est, err)
		}
		tick++
		var vec [10]float64
		copy(vec[:], pmc)
		m := meas
		if est, err := ra.Send(tick, vec[:], &m); err != nil || est.Local || est.Time != tick || est.PNode != meas {
			t.Fatalf("resilient stack-vector send: %+v err %v", est, err)
		}
	}
	resilient()
	if allocs := testing.AllocsPerRun(200, resilient); allocs != 0 {
		t.Fatalf("a live ResilientAgent.Send allocates %.1f times per sample, want 0", allocs)
	}

	// The query round trip against a real Service: the shard walks its blocks
	// straight into the connection's write scratch, so what one query
	// allocates is the client's own result — the point slice and the two
	// header strings — whatever the window holds.
	svc := startService(t)
	// 1100 seconds seal two 512-point blocks, which hold both windows: a warm
	// read is served from the decoded-block cache alone.
	seedHistory(t, svc, "node-alloc", 1100)
	qa, err := Dial(svc.Addr(), "query-alloc")
	if err != nil {
		t.Fatal(err)
	}
	defer qa.Close()
	for _, window := range []int{60, 600} {
		if allocs := queryAllocs(t, qa, "node-alloc", window); allocs != clientQueryAllocs {
			t.Fatalf("a %d-point query round trip allocates %.1f times, want the client's %d and none in the service", window, allocs, clientQueryAllocs)
		}
	}
}

// clientQueryAllocs is what Agent.Query allocates for its caller per reply:
// the []SeriesPoint and the node and channel strings of the SeriesBody.
const clientQueryAllocs = 3

// seedHistory ingests seconds of history for node straight into svc's store.
func seedHistory(t testing.TB, svc *Service, node string, seconds int) {
	t.Helper()
	for i := 0; i < seconds; i++ {
		v := 90 + float64(i%17)
		if err := svc.Store().Ingest(node, float64(i), tsdb.Sample{PNode: v, PCPU: v / 2, PMEM: v / 4, PNodePrime: v, IPMI: math.NaN()}); err != nil {
			t.Fatal(err)
		}
	}
}

// queryAllocs measures the allocations, process-wide, of one warm raw query
// for node's first window seconds through ag.
func queryAllocs(t testing.TB, ag *Agent, node string, window int) float64 {
	t.Helper()
	q := QueryRequest{NodeID: node, Channel: "p_node", From: 0, To: float64(window - 1), ResolutionS: 1}
	query := func() {
		if body, err := ag.Query(q); err != nil || len(body.Points) != window {
			t.Fatalf("query: %d points, err %v, want %d", len(body.Points), err, window)
		}
	}
	query() // warm the block cache and both connections' scratch
	return testing.AllocsPerRun(100, query)
}
