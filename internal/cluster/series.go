package cluster

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"highrpm/internal/tsdb"
)

// This file is the series reply's two ends. A point is materialised once,
// by the client that asked for it: a Handler writes its answer through a
// SeriesWriter, which on a binary connection appends wire bytes to the
// framer's write scratch as the points arrive, and an agent hands a reply
// on as a SeriesReply, which decodes — a whole body, or only the points —
// when its reader asks, or not at all when a router passes it along.

// SeriesWriter is where a Handler puts the answer to one Query. It is the
// tsdb.SeriesSink of the connection the request arrived on: Begin carries
// the reply header, Point appends one point. On a binary connection each
// point becomes its 36 wire bytes in the framer's write scratch at once —
// no []tsdb.Point, no []SeriesPoint — and on a JSON connection the points
// collect into the SeriesBody the envelope marshals. Nothing touches the
// socket until the handler has returned: a sink runs under the store's
// shard lock, and the frame is sized (ErrFrameTooLarge) before its length
// prefix goes out. A writer is valid for the one Query call it is handed to.
type SeriesWriter struct {
	f   *binFramer
	enc wireEnc

	begun bool
	err   error // the first encoding failure; finish returns it
	// countAt is where a binary frame's point count goes once it is known
	// (-1: the frame was relayed whole and carries its own); points is that
	// count.
	countAt, points int
	body            SeriesBody // a JSON reply collects here
}

// reset readies the writer for a reply in enc.
func (w *SeriesWriter) reset(enc wireEnc) {
	w.enc, w.begun, w.err, w.body = enc, false, nil, SeriesBody{}
}

// Begin starts the series: its header, and room for n points. A second
// Begin starts over, so a handler that abandons one source for another
// (a router moving on to the next replica) just begins again.
func (w *SeriesWriter) Begin(node, channel string, resolutionS, n int) {
	w.begun, w.err, w.points = true, nil, 0
	if w.enc != encBinary {
		w.body = SeriesBody{NodeID: node, Channel: channel, ResolutionS: resolutionS, Points: make([]SeriesPoint, 0, n)}
		return
	}
	f := w.f
	f.begin(binKindSeries)
	if w.err = f.str(node); w.err == nil {
		w.err = f.str(channel)
	}
	f.u32(uint32(resolutionS))
	w.countAt = len(f.wbuf)
	f.u32(0)
	f.wbuf = slices.Grow(f.wbuf, n*seriesPointLen)
}

// Point appends one point.
func (w *SeriesWriter) Point(p tsdb.Point) {
	if w.enc != encBinary {
		w.body.Points = append(w.body.Points, p.Wire())
		return
	}
	b := append(w.f.wbuf, make([]byte, seriesPointLen)...)
	at := b[len(w.f.wbuf):]
	binary.BigEndian.PutUint64(at[0:], math.Float64bits(p.Time))
	binary.BigEndian.PutUint64(at[8:], math.Float64bits(p.Value))
	binary.BigEndian.PutUint64(at[16:], math.Float64bits(p.Min))
	binary.BigEndian.PutUint64(at[24:], math.Float64bits(p.Max))
	binary.BigEndian.PutUint32(at[32:], uint32(p.Count))
	w.f.wbuf = b
	w.points++
}

// Relay makes rep — a series reply another service sent — this reply. When
// both connections are binary the payload is byte for byte what this
// writer would have produced from the decoded points, so once seriesShape
// has accepted it the bytes are copied and not a point is decoded;
// verbatim reports that. Any other pairing of codecs decodes and
// re-encodes. An error means rep is malformed and nothing of it was kept.
func (w *SeriesWriter) Relay(rep *SeriesReply) (verbatim bool, err error) {
	if w.enc == encBinary && rep.msg.enc == encBinary {
		if _, _, err := seriesShape(rep.msg.payload); err != nil {
			return false, err
		}
		w.begun, w.err, w.countAt = true, nil, -1
		w.f.begin(binKindSeries)
		w.f.wbuf = append(w.f.wbuf, rep.msg.payload...)
		return true, nil
	}
	body, err := rep.Body()
	if err != nil {
		return false, err
	}
	w.Begin(body.NodeID, body.Channel, body.ResolutionS, len(body.Points))
	for _, p := range body.StorePoints() {
		w.Point(p)
	}
	return false, nil
}

// finish frames the reply the handler wrote. Like every reply writer it
// only fills the connection's buffer; the serve loop flushes.
func (w *SeriesWriter) finish() error {
	if !w.begun {
		return errors.New("cluster: query handler returned no series")
	}
	if w.err != nil {
		return w.err
	}
	if w.enc != encBinary {
		return w.f.writeJSON(w.enc, KindSeries, w.body)
	}
	if w.countAt >= 0 {
		binary.BigEndian.PutUint32(w.f.wbuf[w.countAt:], uint32(w.points))
	}
	return w.f.end()
}

// SeriesReply is one KindSeries reply as it arrived, not yet decoded. It
// aliases its connection's read scratch: valid until the next read on the
// agent that produced it.
type SeriesReply struct {
	f   *binFramer
	msg wireMsg
}

// Body decodes the whole reply — what Agent.Query returns.
func (r *SeriesReply) Body() (SeriesBody, error) {
	if r.msg.enc == encBinary {
		return r.f.readSeries(r.msg.payload)
	}
	var body SeriesBody
	err := DecodeBody(r.msg.env, &body)
	return body, err
}

// AppendPoints decodes only the reply's points, appending them to dst as
// store points: a gatherer that merges many replies reuses one buffer and
// never builds a SeriesBody. On error dst is returned as it came.
func (r *SeriesReply) AppendPoints(dst []tsdb.Point) ([]tsdb.Point, error) {
	if r.msg.enc != encBinary {
		body, err := r.Body()
		if err != nil {
			return dst, err
		}
		return append(dst, body.StorePoints()...), nil
	}
	at, n, err := seriesShape(r.msg.payload)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	for b := r.msg.payload[at:]; n > 0; b, n = b[seriesPointLen:], n-1 {
		dst = append(dst, tsdb.Point{
			Time:  math.Float64frombits(binary.BigEndian.Uint64(b[0:])),
			Value: math.Float64frombits(binary.BigEndian.Uint64(b[8:])),
			Min:   math.Float64frombits(binary.BigEndian.Uint64(b[16:])),
			Max:   math.Float64frombits(binary.BigEndian.Uint64(b[24:])),
			Count: int(binary.BigEndian.Uint32(b[32:])),
		})
	}
	return dst, nil
}
