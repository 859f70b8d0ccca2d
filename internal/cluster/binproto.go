// The binary wire codec: the framing a connection switches to once its
// Hello settles on it, and the only one record batches and series travel
// in. Frames keep the 4-byte big-endian length prefix, but the body is
// a 1-byte kind followed by a fixed-layout payload — big-endian integers,
// float64s as raw bit patterns (NaN payloads survive), length-prefixed
// strings — written with encoding/binary's appenders and read through
// internal/bin's Reader, like the tsdb's WAL and snapshots. Messages
// without a hot-path payoff (stats, model transfer) ride inside
// binKindJSON frames carrying one ordinary JSON envelope, so only the
// per-second telemetry and query paths needed native encodings. A second
// of telemetry travels as a RecordBatch, one sample or many, and is
// answered by an EstimateBatch.
//
// A binFramer owns one connection's scratch: the read buffer, the write
// buffer, the decoded-batch slices and the node-ID intern slot. Nothing
// escapes a frame unless the caller copies it, which is what makes the
// steady-state round trip allocation-free on both sides.
package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"highrpm/internal/bin"
)

// Binary frame kinds (the byte after the length prefix).
const (
	// binKindJSON wraps one JSON envelope — the escape hatch for message
	// kinds without a native binary layout.
	binKindJSON byte = 0
	// Kinds 1 to 3 are reserved and answered as unknown: 1 was a binary
	// Hello layout no peer ever negotiated (the handshake is always JSON), 2
	// and 3 a single sample and its estimate, which now travel as a
	// RecordBatch and an EstimateBatch of one.
	binKindQuery         byte = 4
	binKindSeries        byte = 5
	binKindError         byte = 6
	binKindRecordBatch   byte = 7
	binKindEstimateBatch byte = 8
	// binKindRawSeries is a series whose every point is a raw point, sent
	// as (time, value) pairs.
	binKindRawSeries byte = 9
)

// Estimate flag bits (an estimate record, and a sample body's relayed
// estimate, where only estFlagFromMeasurement is defined).
const (
	estFlagFromMeasurement byte = 1 << 0
	estFlagLocal           byte = 1 << 1
)

// Sample presence bits (the byte after a sample body's PMC values). A
// plain sample's byte is 0 or 1, exactly what it was before relayed
// estimates existed.
const (
	sampleHasMeasured byte = 1 << 0
	sampleHasRelayed  byte = 1 << 1
)

// nodeIntern caches the one node-ID string a connection keeps repeating.
// string(b) == ni.s compiles to a comparison without conversion, so the
// steady state is a byte compare, not an allocation.
type nodeIntern struct{ s string }

func (ni *nodeIntern) intern(b []byte) string {
	if string(b) == ni.s {
		return ni.s
	}
	ni.s = string(b)
	return ni.s
}

// binFramer frames and parses binary messages on one connection. It is
// owned by a single goroutine (the agent, or the service's per-connection
// handler) — none of its scratch is synchronised.
type binFramer struct {
	r        *bufio.Reader
	w        *bufio.Writer
	maxFrame int

	rbuf []byte // frame payload scratch, reused across reads
	wbuf []byte // frame build scratch, reused across writes

	// lenBuf is the read side's length-prefix scratch (the write side
	// reserves its prefix in wbuf). A local would do, but a local handed to
	// io.ReadFull escapes to the heap (the byte slice leaks into an
	// interface call), costing an allocation per frame; a field rides the
	// framer's own allocation instead.
	lenBuf [4]byte
	node   nodeIntern
	// qnode and qchan intern a query's node and channel apart from the sample
	// path's slot: a reader that keeps asking about one series costs the
	// serve loop no allocation either.
	qnode, qchan nodeIntern

	// Decoded-message scratch: the batch handed to the caller reuses these
	// slices, so callers must finish with one message before reading the
	// next (the request/response protocol guarantees that).
	batch      RecordBatch
	batchVals  []float64         // backing for the batch samples' PMC slices
	batchMeas  []float64         // backing for the batch samples' Measured pointers
	batchRelay []RelayedEstimate // backing for the batch samples' Relayed pointers
	batchOffs  []int             // per sample: PMC [start,end) into batchVals, then the batchMeas and batchRelay indices
}

func newBinFramer(r *bufio.Reader, w *bufio.Writer, maxFrame int) *binFramer {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &binFramer{r: r, w: w, maxFrame: maxFrame}
}

// readFrame reads one binary frame, returning the kind and its payload.
// The payload aliases the framer's scratch — valid until the next read.
// A binKindJSON payload gets a buffer of its own instead: the escape hatch
// carries the one outsized message a connection ever sees (the model
// transfer), and a pooled connection must not keep scratch that size for
// the rest of its life.
func (f *binFramer) readFrame() (byte, []byte, error) {
	if _, err := io.ReadFull(f.r, f.lenBuf[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(f.lenBuf[:])
	if n > uint32(f.maxFrame) {
		return 0, nil, fmt.Errorf("%w: length prefix claims %d bytes, cap %d", ErrFrameTooLarge, n, f.maxFrame)
	}
	if n == 0 {
		return 0, nil, fmt.Errorf("cluster: empty binary frame")
	}
	kind, err := f.r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	if kind == binKindJSON {
		buf, err := readFrame(f.r, int(n)-1)
		return kind, buf, err
	}
	buf, err := readFrameInto(f.r, f.rbuf, int(n)-1)
	if buf != nil {
		f.rbuf = buf
	}
	if err != nil {
		return 0, nil, err
	}
	return kind, buf, nil
}

// framePrefix is the length prefix every frame starts with. begin reserves
// it at the front of the write scratch and end patches it in, so a frame
// reaches the connection's buffer in one Write — a frame larger than the
// buffer then costs one write syscall, not a buffer's worth and the rest.
const framePrefix = 4

// begin starts building one outgoing frame; end length-prefixes and writes
// it. Nothing reaches the connection until end, so a frame that trips the
// size cap is dropped whole and the caller can send an error instead.
func (f *binFramer) begin(kind byte) {
	f.wbuf = append(f.wbuf[:0], 0, 0, 0, 0, kind)
}

func (f *binFramer) end() error { return f.endWith(nil) }

// endWith finishes the frame begun in the write scratch with tail appended
// on the wire only — a body too large to be worth keeping scratch for.
func (f *binFramer) endWith(tail []byte) error {
	n := len(f.wbuf) - framePrefix + len(tail)
	if n > f.maxFrame {
		return fmt.Errorf("%w: binary frame is %d bytes, cap %d", ErrFrameTooLarge, n, f.maxFrame)
	}
	binary.BigEndian.PutUint32(f.wbuf, uint32(n))
	if _, err := f.w.Write(f.wbuf); err != nil || len(tail) == 0 {
		return err
	}
	_, err := f.w.Write(tail)
	return err
}

// Append primitives (big-endian, fixed width).

func (f *binFramer) u8(v byte)    { f.wbuf = append(f.wbuf, v) }
func (f *binFramer) u16(v uint16) { f.wbuf = binary.BigEndian.AppendUint16(f.wbuf, v) }
func (f *binFramer) u32(v uint32) { f.wbuf = binary.BigEndian.AppendUint32(f.wbuf, v) }
func (f *binFramer) f64(v float64) {
	f.wbuf = binary.BigEndian.AppendUint64(f.wbuf, math.Float64bits(v))
}

func (f *binFramer) str(s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("cluster: string field of %d bytes exceeds the 64 KiB wire limit", len(s))
	}
	f.u16(uint16(len(s)))
	f.wbuf = append(f.wbuf, s...)
	return nil
}

// payloadErr prefixes a failed payload read: the frame's layout is fixed,
// so a payload that ran short or has bytes to spare is malformed.
func payloadErr(r *bin.Reader) error {
	if err := r.Done(); err != nil {
		return fmt.Errorf("cluster: binary payload %w", err)
	}
	return nil
}

// --- message encodings ---

// Sample body: f64 time, u16 count + f64 PMC values, u8 presence bits, then
// what they announce, in bit order: the f64 measured reading, and the
// relayed estimate as 3 × f64 (node, CPU, memory) + u8 flags. A RecordBatch
// carries one body per sample.

func (f *binFramer) sampleBody(t float64, pmc []float64, measured *float64, rel *RelayedEstimate) error {
	f.f64(t)
	if len(pmc) > math.MaxUint16 {
		return fmt.Errorf("cluster: %d PMC values exceed the wire limit", len(pmc))
	}
	f.u16(uint16(len(pmc)))
	for _, v := range pmc {
		f.f64(v)
	}
	var present byte
	if measured != nil {
		present |= sampleHasMeasured
	}
	if rel != nil {
		present |= sampleHasRelayed
	}
	f.u8(present)
	if measured != nil {
		f.f64(*measured)
	}
	if rel != nil {
		f.f64(rel.PNode)
		f.f64(rel.PCPU)
		f.f64(rel.PMEM)
		var flags byte
		if rel.FromMeasurement {
			flags |= estFlagFromMeasurement
		}
		f.u8(flags)
	}
	return nil
}

// sampleFields is one decoded sample body minus its PMC values.
type sampleFields struct {
	t                       float64
	measured                float64
	relayed                 RelayedEstimate
	hasMeasured, hasRelayed bool
}

// readSampleBody decodes one sample body from r, appending its PMC values
// to vals. It returns the rest of the body and the grown vals (the
// sample's are the appended tail).
func readSampleBody(r *bin.Reader, vals []float64) (sampleFields, []float64, error) {
	s := sampleFields{t: r.F64()}
	npmc := int(r.U16())
	if npmc > r.Len()/8 {
		return s, vals, fmt.Errorf("cluster: sample claims %d PMC values with %d bytes left", npmc, r.Len())
	}
	for i := 0; i < npmc; i++ {
		vals = append(vals, r.F64())
	}
	// Strict on the presence and flag bytes: every accepted payload
	// re-encodes to the same bytes, which is the round-trip law the fuzzer
	// enforces.
	present := r.U8()
	if present&^(sampleHasMeasured|sampleHasRelayed) != 0 {
		return s, vals, fmt.Errorf("cluster: unknown presence bits %#x in binary sample", present)
	}
	if s.hasMeasured = present&sampleHasMeasured != 0; s.hasMeasured {
		s.measured = r.F64()
	}
	if s.hasRelayed = present&sampleHasRelayed != 0; s.hasRelayed {
		s.relayed = RelayedEstimate{PNode: r.F64(), PCPU: r.F64(), PMEM: r.F64()}
		flags := r.U8()
		if flags&^estFlagFromMeasurement != 0 {
			return s, vals, fmt.Errorf("cluster: unknown relayed-estimate flag bits %#x", flags)
		}
		s.relayed.FromMeasurement = flags&estFlagFromMeasurement != 0
	}
	return s, vals, nil
}

// Estimate record: node string, 4 × f64, u8 flags. An EstimateBatch
// carries one record per estimate.

func (f *binFramer) estimateRec(est *Estimate) error {
	if err := f.str(est.NodeID); err != nil {
		return err
	}
	f.f64(est.Time)
	f.f64(est.PNode)
	f.f64(est.PCPU)
	f.f64(est.PMEM)
	var flags byte
	if est.FromMeasurement {
		flags |= estFlagFromMeasurement
	}
	if est.Local {
		flags |= estFlagLocal
	}
	f.u8(flags)
	return nil
}

func (f *binFramer) readEstimateRec(r *bin.Reader) (Estimate, error) {
	node := r.Bytes(int(r.U16()))
	est := Estimate{
		Time:  r.F64(),
		PNode: r.F64(),
		PCPU:  r.F64(),
		PMEM:  r.F64(),
	}
	flags := r.U8()
	if flags&^(estFlagFromMeasurement|estFlagLocal) != 0 {
		return Estimate{}, fmt.Errorf("cluster: unknown estimate flag bits %#x", flags)
	}
	est.NodeID = f.node.intern(node)
	est.FromMeasurement = flags&estFlagFromMeasurement != 0
	est.Local = flags&estFlagLocal != 0
	return est, nil
}

// RecordBatch: node string, u32 count, then one sample body per sample.

func (f *binFramer) writeRecordBatch(nodeID string, samples []BatchSample) error {
	f.begin(binKindRecordBatch)
	if err := f.str(nodeID); err != nil {
		return err
	}
	f.u32(uint32(len(samples)))
	for i := range samples {
		s := &samples[i]
		if err := f.sampleBody(s.Time, s.PMC, s.Measured, s.Relayed); err != nil {
			return err
		}
	}
	return f.end()
}

// readRecordBatch decodes into the framer's scratch batch; the result and
// every slice in it are valid until the next read on this framer.
func (f *binFramer) readRecordBatch(payload []byte) (*RecordBatch, error) {
	r := bin.NewReader(payload)
	node := r.Bytes(int(r.U16()))
	n := int(r.U32())
	if n > len(payload)/9 {
		return nil, fmt.Errorf("cluster: batch claims %d samples in a %d-byte payload", n, len(payload))
	}
	samples := f.batch.Samples[:0]
	vals := f.batchVals[:0]
	meas := f.batchMeas[:0]
	relay := f.batchRelay[:0]
	// PMC, Measured and Relayed are carved out of single backing arrays
	// after the loop (the arrays may move while growing), so the loop
	// records offsets: per sample [pmcStart, pmcEnd, measuredIdx,
	// relayedIdx] with -1 for "absent".
	offs := f.batchOffs[:0]
	for i := 0; i < n; i++ {
		start, mi, ri := len(vals), -1, -1
		s, grown, err := readSampleBody(&r, vals)
		if err != nil {
			return nil, err
		}
		vals = grown
		if s.hasMeasured {
			mi = len(meas)
			meas = append(meas, s.measured)
		}
		if s.hasRelayed {
			ri = len(relay)
			relay = append(relay, s.relayed)
		}
		offs = append(offs, start, len(vals), mi, ri)
		samples = append(samples, BatchSample{Time: s.t})
	}
	f.batchVals, f.batchMeas, f.batchRelay, f.batchOffs = vals, meas, relay, offs
	if err := payloadErr(&r); err != nil {
		return nil, err
	}
	for i := range samples {
		o := offs[4*i : 4*i+4]
		samples[i].PMC = vals[o[0]:o[1]:o[1]]
		if o[2] >= 0 {
			samples[i].Measured = &meas[o[2]]
		}
		if o[3] >= 0 {
			samples[i].Relayed = &relay[o[3]]
		}
	}
	f.batch = RecordBatch{NodeID: f.node.intern(node), Samples: samples}
	return &f.batch, nil
}

// EstimateBatch: u32 count, then one estimate record per estimate.

func (f *binFramer) writeEstimateBatch(ests []Estimate) error {
	f.begin(binKindEstimateBatch)
	f.u32(uint32(len(ests)))
	for i := range ests {
		if err := f.estimateRec(&ests[i]); err != nil {
			return err
		}
	}
	return f.end()
}

// readEstimateBatch appends the estimates of an EstimateBatch payload to
// dst and returns the grown slice, so a caller that hands its previous
// result back as dst[:0] decodes every batch into the same array. On error
// it returns dst as it was handed.
func (f *binFramer) readEstimateBatch(payload []byte, dst []Estimate) ([]Estimate, error) {
	r := bin.NewReader(payload)
	n := int(r.U32())
	if n > len(payload)/35 {
		return dst, fmt.Errorf("cluster: estimate batch claims %d entries in a %d-byte payload", n, len(payload))
	}
	ests := dst
	for i := 0; i < n; i++ {
		est, err := f.readEstimateRec(&r)
		if err != nil {
			return dst, err
		}
		ests = append(ests, est)
	}
	if err := payloadErr(&r); err != nil {
		return dst, err
	}
	return ests, nil
}

// Query: node string, channel string, f64 from, f64 to, u32 resolution.

func (f *binFramer) writeQuery(q QueryRequest) error {
	f.begin(binKindQuery)
	if err := f.str(q.NodeID); err != nil {
		return err
	}
	if err := f.str(q.Channel); err != nil {
		return err
	}
	f.f64(q.From)
	f.f64(q.To)
	f.u32(uint32(q.ResolutionS))
	return f.end()
}

func (f *binFramer) readQuery(payload []byte) (QueryRequest, error) {
	r := bin.NewReader(payload)
	node := r.Bytes(int(r.U16()))
	channel := r.Bytes(int(r.U16()))
	q := QueryRequest{
		From:        r.F64(),
		To:          r.F64(),
		ResolutionS: int(r.U32()),
	}
	if err := payloadErr(&r); err != nil {
		return QueryRequest{}, err
	}
	q.NodeID = f.qnode.intern(node)
	q.Channel = f.qchan.intern(channel)
	return q, nil
}

// Series: node string, channel string, u32 resolution, u32 point count,
// then the points in one of two layouts, told apart by the frame's kind.
// Kind 5 carries any point: f64 time/value/min/max and u32 count, 36 bytes.
// Kind 9 carries raw points only, as f64 time and f64 value, 16 bytes; a
// raw point's Min and Max are its Value and its Count is 1, so the decoder
// restores them and the two layouts decode to the same body. Values travel
// as raw bit patterns, so the decoded SeriesBody holds the store's points
// bit for bit, NaN payloads included. The one encoder is SeriesWriter
// (series.go).

// Point widths on the wire: seriesPointLen for kind 5, rawPointLen for
// kind 9.
const (
	seriesPointLen = 4*8 + 4
	rawPointLen    = 2 * 8
)

// pointLen is one point of a series frame of kind on the wire.
func pointLen(kind byte) int {
	if kind == binKindRawSeries {
		return rawPointLen
	}
	return seriesPointLen
}

// seriesShape checks a Series payload of kind (5 or 9) without touching a
// point: the header parses and exactly n points of the kind's width follow
// it. It returns where they start and how many there are. These are the
// only two ways the strict readSeries can refuse a payload — a point is
// fixed-width fields and every bit pattern is a value — so a payload
// seriesShape accepts may be forwarded as it is (FuzzSeriesShape pins the
// equivalence for both kinds).
func seriesShape(kind byte, payload []byte) (pointsAt, n int, err error) {
	r := bin.NewReader(payload)
	r.Bytes(int(r.U16())) // node
	r.Bytes(int(r.U16())) // channel
	r.U32()               // resolution
	n = int(r.U32())
	if err := r.Err(); err != nil {
		return 0, 0, fmt.Errorf("cluster: series header %w", err)
	}
	width := pointLen(kind)
	if rest := r.Len(); rest%width != 0 || rest/width != n {
		return 0, 0, fmt.Errorf("cluster: series claims %d points, %d bytes follow its header", n, rest)
	}
	return r.Off(), n, nil
}

func (f *binFramer) readSeries(kind byte, payload []byte) (SeriesBody, error) {
	r := bin.NewReader(payload)
	node := r.Bytes(int(r.U16()))
	channel := r.Bytes(int(r.U16()))
	res := int(r.U32())
	n := int(r.U32())
	if n > len(payload)/pointLen(kind) {
		return SeriesBody{}, fmt.Errorf("cluster: series claims %d points in a %d-byte payload", n, len(payload))
	}
	pts := make([]SeriesPoint, 0, n)
	if kind == binKindRawSeries {
		for i := 0; i < n; i++ {
			t, v := r.F64(), NullFloat(r.F64())
			pts = append(pts, SeriesPoint{Time: t, Value: v, Min: v, Max: v, Count: 1})
		}
	} else {
		for i := 0; i < n; i++ {
			pts = append(pts, SeriesPoint{
				Time:  r.F64(),
				Value: NullFloat(r.F64()),
				Min:   NullFloat(r.F64()),
				Max:   NullFloat(r.F64()),
				Count: int(r.U32()),
			})
		}
	}
	if err := payloadErr(&r); err != nil {
		return SeriesBody{}, err
	}
	return SeriesBody{
		NodeID:      string(node),
		Channel:     string(channel),
		ResolutionS: res,
		Points:      pts,
	}, nil
}

// Error: u32 length + message bytes.

func (f *binFramer) writeError(msg string) error {
	f.begin(binKindError)
	f.u32(uint32(len(msg)))
	f.wbuf = append(f.wbuf, msg...)
	return f.end()
}

func (f *binFramer) readError(payload []byte) (string, error) {
	r := bin.NewReader(payload)
	msg := r.Bytes(int(r.U32()))
	if err := payloadErr(&r); err != nil {
		return "", err
	}
	return string(msg), nil
}

// writeJSONEnvelope wraps one JSON envelope in a binKindJSON frame — the
// transport for kinds without a native binary layout (stats, model). The
// marshalled envelope goes out as it is, not through the write scratch,
// for the reason readFrame gives.
func (f *binFramer) writeJSONEnvelope(kind MsgKind, body any) error {
	env, err := marshalEnvelope(kind, body)
	if err != nil {
		return err
	}
	f.begin(binKindJSON)
	return f.endWith(env)
}

// readJSONEnvelope parses a binKindJSON payload.
func readJSONEnvelope(payload []byte) (Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return Envelope{}, fmt.Errorf("cluster: bad envelope: %w", err)
	}
	return env, nil
}
