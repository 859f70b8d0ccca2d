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

// replySeries frames body as a series reply in enc the way the serve loop
// does for a handler: through SeriesWriter, the one series encoder.
func (f *binFramer) replySeries(enc wireEnc, body SeriesBody) error {
	return f.replySeriesAs(enc, binKindRawSeries, body)
}

// replySeriesAs is replySeries with the binary frame's first kind given:
// binKindRawSeries is the serve loop's writer, binKindSeries the kind-5
// encoder — a writer widened before its first point.
func (f *binFramer) replySeriesAs(enc wireEnc, kind byte, body SeriesBody) error {
	w := SeriesWriter{f: f}
	w.reset(enc)
	w.Begin(body.NodeID, body.Channel, body.ResolutionS, len(body.Points))
	if enc == encBinary && kind == binKindSeries {
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
	case binKindSample:
		smp, err := f.readSample(payload)
		if err != nil {
			return nil, true, err
		}
		// Copy out of the framer scratch: the re-encode runs after further
		// framer use in some tests.
		node, tm := smp.NodeID, smp.Time
		pmc := append([]float64(nil), smp.PMC...)
		measured, rel := clonePtr(smp.Measured), clonePtr(smp.Relayed)
		return func(g *binFramer) error { return g.writeSample(node, tm, pmc, measured, rel) }, true, nil
	case binKindEstimate:
		est, err := f.readEstimate(payload)
		if err != nil {
			return nil, true, err
		}
		return func(g *binFramer) error { return g.writeEstimate(&est) }, true, nil
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
		return func(g *binFramer) error { return g.replySeriesAs(encBinary, kind, body) }, true, nil
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
		node := rb.NodeID
		samples := make([]BatchSample, len(rb.Samples))
		for i, s := range rb.Samples {
			samples[i] = BatchSample{Time: s.Time, PMC: append([]float64(nil), s.PMC...),
				Measured: clonePtr(s.Measured), Relayed: clonePtr(s.Relayed)}
		}
		return func(g *binFramer) error { return g.writeRecordBatch(node, samples) }, true, nil
	case binKindEstimateBatch:
		ests, err := f.readEstimateBatch(payload)
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
		encodeBinFrame(f, func(g *binFramer) error {
			return g.writeSample("node-a", 1.5, []float64{1e9, 2e9, math.NaN()}, &meas, nil)
		}),
		encodeBinFrame(f, func(g *binFramer) error {
			return g.writeEstimate(&Estimate{NodeID: "n", Time: 2, PNode: 90, PCPU: 40, PMEM: 12, FromMeasurement: true})
		}),
		encodeBinFrame(f, func(g *binFramer) error {
			return g.writeQuery(QueryRequest{NodeID: "n", Channel: "p_node", From: 0, To: 100, ResolutionS: 10})
		}),
		encodeBinFrame(f, func(g *binFramer) error {
			return g.replySeries(encBinary, SeriesBody{Channel: "p_node", ResolutionS: 1, Points: []SeriesPoint{
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
	f.Add(binKindSample, []byte{})                 // truncated
	f.Add(binKindError, []byte{0, 0, 0, 200, 'x'}) // claims more than it has
	// Relayed estimates (added after the seeds above so those keep their
	// numbers): a sample with one riding on it, with and without the IM
	// reading — NaN estimates survive as bit patterns — and a batch as a
	// router forwards it to a follower, relayed and plain samples mixed.
	for _, frame := range [][]byte{
		encodeBinFrame(f, func(g *binFramer) error {
			return g.writeSample("node-a", 1.5, []float64{1e9, 2e9}, &meas, &RelayedEstimate{PNode: 90.5, PCPU: 40, PMEM: 12, FromMeasurement: true})
		}),
		encodeBinFrame(f, func(g *binFramer) error {
			return g.writeSample("node-a", 2.5, []float64{1e9}, nil, &RelayedEstimate{PNode: 88, PCPU: math.NaN(), PMEM: 11})
		}),
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
		encodeBinFrame(f, func(g *binFramer) error { return g.replySeries(encBinary, rawSeriesBody()) }),
		encodeBinFrame(f, func(g *binFramer) error {
			return g.replySeries(encBinary, SeriesBody{NodeID: "n", Channel: "ipmi", ResolutionS: 1})
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
			return g.replySeriesAs(encBinary, kind, SeriesBody{NodeID: "empty", Channel: "p_node", ResolutionS: 1})
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
			w.reset(encBinary)
			if verbatim, err := w.Relay(rep); err != nil || !verbatim {
				t.Fatalf("relay of an accepted kind-%d payload: verbatim %v, err %v", kind, verbatim, err)
			}
			return w.finish()
		})
		if relayed[4] != kind || !bytes.Equal(relayed[5:], payload) {
			t.Fatalf("kind %d relayed as kind %d %x", kind, relayed[4], relayed[5:])
		}
		for _, start := range []byte{binKindSeries, binKindRawSeries} {
			reencoded := encodeBinFrame(t, func(g *binFramer) error { return g.replySeriesAs(encBinary, start, body) })
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

// FuzzCrossCodecSample pins the two codecs to each other: a sample — with
// or without an IM reading, with or without a relayed estimate — sent
// through the JSON framing and through the binary framing must decode to
// bit-identical fields, alone in a Sample frame and inside a RecordBatch
// beside its plain twin. JSON cannot carry non-finite floats (WriteMsg
// fails), so the agreement check applies when both paths accept the value;
// the binary path must round-trip regardless.
func FuzzCrossCodecSample(f *testing.F) {
	f.Add("node-1", 1.5, 1e9, 2e9, 3e9, true, 90.5, false, 0.0, 0.0, 0.0, false)
	f.Add("", 0.0, 0.0, 0.0, 0.0, false, 0.0, false, 0.0, 0.0, 0.0, false)
	f.Add("n", math.Inf(1), math.NaN(), -1e308, 5e-324, false, 0.0, false, 0.0, 0.0, 0.0, false)
	f.Add("node-\xff", -3.25, 7.0, 8.0, 9.0, true, math.NaN(), false, 0.0, 0.0, 0.0, false)
	f.Add("node-1", 1.5, 1e9, 2e9, 3e9, true, 90.5, true, 90.5, 40.0, 12.0, true)
	f.Add("node-2", 2.5, 1e9, 2e9, 3e9, false, 0.0, true, 88.0, 39.0, 11.0, false)
	f.Add("n", 0.0, 1.0, 2.0, 3.0, false, 0.0, true, math.NaN(), math.Inf(-1), math.Copysign(0, -1), false)

	f.Fuzz(func(t *testing.T, node string, tm, p0, p1, p2 float64, hasMeasured bool, m float64,
		hasRelayed bool, rn, rc, rm float64, relFromMeasurement bool) {
		if len(node) > math.MaxUint16 {
			return
		}
		want := BatchSample{Time: tm, PMC: []float64{p0, p1, p2}}
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
		checkBatch := func(what string, rb *RecordBatch) {
			if len(rb.Samples) != 2 {
				t.Fatalf("%s: wrote 2 samples read %d", what, len(rb.Samples))
			}
			check(what+"[0]", rb.NodeID, rb.Samples[0], want)
			check(what+"[1]", rb.NodeID, rb.Samples[1], plain)
		}

		// Binary path: must always round-trip bit-exactly.
		readBin := func(frame []byte, wantKind byte) (*binFramer, []byte) {
			fr := newBinFramer(bufio.NewReader(bytes.NewReader(frame)), nil, DefaultMaxFrame)
			kind, payload, err := fr.readFrame()
			if err != nil || kind != wantKind {
				t.Fatalf("binary frame read: kind %d err %v", kind, err)
			}
			return fr, payload
		}
		fr, payload := readBin(encodeBinFrame(t, func(g *binFramer) error {
			return g.writeSample(node, tm, want.PMC, want.Measured, want.Relayed)
		}), binKindSample)
		got, err := fr.readSample(payload)
		if err != nil {
			t.Fatalf("binary decode: %v", err)
		}
		check("binary sample", got.NodeID, BatchSample{Time: got.Time, PMC: got.PMC, Measured: got.Measured, Relayed: got.Relayed}, want)
		fr, payload = readBin(encodeBinFrame(t, func(g *binFramer) error {
			return g.writeRecordBatch(node, []BatchSample{want, plain})
		}), binKindRecordBatch)
		rb, err := fr.readRecordBatch(payload)
		if err != nil {
			t.Fatalf("binary batch decode: %v", err)
		}
		checkBatch("binary batch", rb)

		// JSON path: agree with the binary decode whenever JSON can carry
		// the values at all (NaN/Inf and invalid-UTF-8 node IDs cannot ride
		// JSON losslessly).
		var buf bytes.Buffer
		smp := Sample{NodeID: node, Time: tm, PMC: want.PMC, Measured: want.Measured, Relayed: want.Relayed}
		if err := WriteMsg(&buf, KindSample, smp); err != nil {
			return
		}
		if err := WriteMsg(&buf, KindRecordBatch, RecordBatch{NodeID: node, Samples: []BatchSample{want, plain}}); err != nil {
			t.Fatalf("JSON carried the sample but not the batch: %v", err)
		}
		r := bufio.NewReader(&buf)
		var jdec Sample
		var jrb RecordBatch
		for _, dst := range []any{&jdec, &jrb} {
			env, err := ReadMsg(r)
			if err != nil {
				t.Fatalf("JSON read after write: %v", err)
			}
			if err := DecodeBody(env, dst); err != nil {
				t.Fatalf("JSON decode: %v", err)
			}
		}
		if jdec.NodeID != node {
			return // JSON coerced invalid UTF-8; codecs legitimately differ
		}
		check("json sample", jdec.NodeID, BatchSample{Time: jdec.Time, PMC: jdec.PMC, Measured: jdec.Measured, Relayed: jdec.Relayed}, want)
		checkBatch("json batch", &jrb)
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
// then queries the same stored series through both connections and
// requires the JSON renderings to match byte-for-byte. This is the
// acceptance gate for the binary codec: framing changed, results did not.
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

	// The same stored series fetched over both codecs must render to the
	// same JSON bytes — for the node histories and the cluster aggregate,
	// at raw and rollup resolutions.
	for _, req := range []QueryRequest{
		{NodeID: "node-bin", Channel: "p_node", From: 0, To: 100},
		{NodeID: "node-bin", Channel: "ipmi", From: 0, To: 100},
		{NodeID: "node-json", Channel: "p_cpu", From: 0, To: 100, ResolutionS: 10},
		{Channel: "p_node", From: 0, To: 100, ResolutionS: 10},
	} {
		bb, err := bin.Query(req)
		if err != nil {
			t.Fatalf("binary query %+v: %v", req, err)
		}
		jb, err := js.Query(req)
		if err != nil {
			t.Fatalf("json query %+v: %v", req, err)
		}
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

// TestRecordBatch runs the batched ingest path over both codecs: Record
// coalesces, the flush returns one estimate per sample in order, and the
// estimates equal what unbatched Sends produce for the same stream.
func TestRecordBatch(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	for _, codec := range []string{CodecBinary, CodecJSON} {
		t.Run(codec, func(t *testing.T) {
			batched, err := DialCodec(svc.Addr(), "batch-"+codec, codec, 0)
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

// TestResilientBatchDegradedReplay: a batched ResilientAgent whose service
// dies must serve flushes locally, keep the samples in order in the replay
// buffer, and deliver the whole backlog in order once a service returns.
func TestResilientBatchDegradedReplay(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(sharedModel(t))
	svc.Logf = t.Logf
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := svc.Addr()
	opts := DefaultAgentOptions()
	opts.DialTimeout = 500 * 1e6 // 500ms
	opts.RequestTimeout = 500 * 1e6
	opts.BackoffMin = 1e6 // 1ms
	opts.BackoffMax = 10e6
	opts.SendRetries = 1
	opts.FailThreshold = 1
	opts.Batch = BatchOptions{MaxSamples: 3}
	ra, err := DialResilient(addr, "node-batch-ft", opts)
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	defer ra.Close()

	pmc := benchPMC()
	record := func(i int) []Estimate {
		t.Helper()
		ests, err := ra.Record(float64(i), pmc, nil)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		return ests
	}
	var live []Estimate
	for i := 0; i < 6; i++ {
		live = append(live, record(i)...)
	}
	if len(live) != 6 {
		t.Fatalf("%d live estimates, want 6", len(live))
	}
	for _, e := range live {
		if e.Local {
			t.Fatal("live flush served locally while the service was up")
		}
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	var local []Estimate
	for i := 6; i < 12; i++ {
		local = append(local, record(i)...)
	}
	if len(local) != 6 {
		t.Fatalf("%d estimates during outage, want 6", len(local))
	}
	for _, e := range local {
		if !e.Local {
			t.Fatalf("outage estimate not local: %+v", e)
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
	// The agent redials from inside Record once its backoff (at most
	// BackoffMax) has run out, so the loop is bounded by wall time and paced
	// by it: a degraded Record is one local inference, a few microseconds,
	// and a loop bounded by a count could end inside a single backoff delay.
	deadline := time.Now().Add(5 * time.Second)
	for i := 12; ra.Mode() != ModeConnected || ra.Pending() > 0; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("agent never recovered: mode %v, %d pending", ra.Mode(), ra.Pending())
		}
		record(i)
		time.Sleep(opts.BackoffMin)
	}
	// The recovery loop keeps batching while degraded, so more than the
	// original 6 samples pass through the buffer; what matters is that the
	// whole backlog replays and nothing is lost.
	c := ra.Counters()
	if c.Replayed < 6 || c.Replayed != c.Buffered || c.Dropped != 0 {
		t.Fatalf("replay incomplete: %+v", c)
	}
}

// TestBinaryCodecZeroAlloc is the allocation-regression guard for the
// binary record path: one steady-state encode → frame read → decode of a
// sample must not allocate at all. Everything lives in the framer scratch
// — the write buffer, the read buffer, the PMC slice, the interned node.
func TestBinaryCodecZeroAlloc(t *testing.T) {
	leaktest.Check(t)
	pmc := benchPMC()
	meas := 90.5
	var buf bytes.Buffer
	fw := pipeFramer(&buf)
	br := bytes.NewReader(nil)
	rr := bufio.NewReader(br)
	fr := newBinFramer(rr, nil, DefaultMaxFrame)

	iter := func() {
		buf.Reset()
		fw.w.Reset(&buf)
		if err := fw.writeSample("node-alloc", 42.5, pmc, &meas, nil); err != nil {
			t.Fatal(err)
		}
		if err := fw.w.Flush(); err != nil {
			t.Fatal(err)
		}
		br.Reset(buf.Bytes())
		rr.Reset(br)
		kind, payload, err := fr.readFrame()
		if err != nil || kind != binKindSample {
			t.Fatalf("frame: kind %d err %v", kind, err)
		}
		smp, err := fr.readSample(payload)
		if err != nil {
			t.Fatal(err)
		}
		if smp.NodeID != "node-alloc" || len(smp.PMC) != len(pmc) {
			t.Fatalf("bad decode: %+v", smp)
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
	// estimate attached, and sixteen of them in one batch.
	rel := RelayedEstimate{PNode: 91.5, PCPU: 40, PMEM: 12}
	relayedBatch := make([]BatchSample, 16)
	for i := range relayedBatch {
		relayedBatch[i] = BatchSample{Time: float64(i), PMC: pmc, Relayed: &rel}
	}
	relayedBatch[0].Measured = &meas
	sendBatch := func(samples []BatchSample) {
		// The batch reply is only framed, not decoded: decoding it builds
		// the caller's estimate slice, the one allocation a batch is for.
		if err := cf.writeRecordBatch("node-alloc", samples); err != nil {
			t.Fatal(err)
		}
		if rep, err := ag.roundTrip(KindEstimateBatch); err != nil || rep.enc != encBinary {
			t.Fatalf("batch reply: %+v err %v", rep, err)
		}
	}
	roundTrip := func() {
		if est, err := ag.Send(42.5, pmc, &meas); err != nil || est.PNode != meas {
			t.Fatalf("sample reply: %+v err %v", est, err)
		}
		sendBatch(batch)
		if est, err := ag.send(43.5, pmc, nil, &rel); err != nil || est.PNode != rel.PNode {
			t.Fatalf("relayed sample reply: %+v err %v", est, err)
		}
		sendBatch(relayedBatch)
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("serve loop allocates %.1f times per sample+batch round trip, plain and relayed, want 0", allocs)
	}
	client.Close()
	if err := <-done; err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("serve loop exit: %v", err)
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
