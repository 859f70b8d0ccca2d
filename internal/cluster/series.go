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
// SeriesWriter, which appends wire bytes to the framer's write scratch as
// the points arrive, and an agent hands a reply on as a SeriesReply, which
// decodes — a whole body, or only the points — when its reader asks, or not
// at all when a router passes it along. A series travels only in binary
// frames: a query that arrives as JSON is refused before a handler sees it.

// SeriesWriter is where a Handler puts the answer to one Query. It is the
// tsdb.SeriesSink of the connection the request arrived on: Begin carries
// the reply header, Point appends one point and Raw a run of raw points.
// Each point becomes its wire bytes in the framer's write scratch at once —
// no []tsdb.Point, no []SeriesPoint.
//
// A reply starts as kind 9, 16 bytes a point, and stays so while
// every point is a raw point (Min and Max bit-equal to Value, Count 1) — a
// node's raw series always is; at the first point that is not, the points
// written so far are widened in place and the reply is kind 5, 36 bytes a
// point.
//
// Nothing touches the socket until the handler has returned: a sink runs
// under the store's shard lock, and the frame is sized (ErrFrameTooLarge)
// before it goes out. A writer is valid for the one Query call it is
// handed to.
type SeriesWriter struct {
	f *binFramer

	begun bool
	err   error // the first encoding failure; finish returns it
	kind  byte  // the frame's kind as written so far
	// countAt is where the frame's point count goes once it is known (-1:
	// the frame was relayed whole and carries its own), pointsAt where its
	// points start; points is the count.
	countAt, pointsAt, points int
}

// reset readies the writer for the next reply.
func (w *SeriesWriter) reset() { w.begun, w.err = false, nil }

// Begin starts the series: its header, and room for n points. A second
// Begin starts over, so a handler that abandons one source for another
// (a router moving on to the next replica) just begins again.
func (w *SeriesWriter) Begin(node, channel string, resolutionS, n int) {
	w.begun, w.err, w.points = true, nil, 0
	w.kind = binKindRawSeries
	f := w.f
	f.begin(w.kind)
	if w.err = f.str(node); w.err == nil {
		w.err = f.str(channel)
	}
	f.u32(uint32(resolutionS))
	w.countAt = len(f.wbuf)
	f.u32(0)
	w.pointsAt = len(f.wbuf)
	f.wbuf = slices.Grow(f.wbuf, n*pointLen(w.kind))
}

// isRaw reports whether kind 9 can carry p: Min and Max are Value bit for
// bit (a NaN with another payload is another value) and Count is 1.
func isRaw(p *tsdb.Point) bool {
	v := math.Float64bits(p.Value)
	return math.Float64bits(p.Min) == v && math.Float64bits(p.Max) == v && p.Count == 1
}

// Point appends one point.
func (w *SeriesWriter) Point(p tsdb.Point) {
	if w.kind == binKindRawSeries {
		if isRaw(&p) {
			w.f.wbuf = appendRawPoint(w.f.wbuf, p.Time, p.Value)
			w.points++
			return
		}
		w.widen()
	}
	w.f.wbuf = appendPoint(w.f.wbuf, p.Time, p.Value, p.Min, p.Max, uint32(p.Count))
	w.points++
}

// Raw appends a run of raw points: tms[i] milliseconds, vals[i] the value,
// each read as tsdb.RawPoint — the store's walk hands a node's raw series
// over this way, a decoded block at a time.
func (w *SeriesWriter) Raw(tms []int64, vals []float64) {
	w.points += len(tms)
	if w.kind == binKindRawSeries {
		b := slices.Grow(w.f.wbuf, len(tms)*rawPointLen)
		for i, t := range tms {
			b = appendRawPoint(b, float64(t)/1000, vals[i])
		}
		w.f.wbuf = b
		return
	}
	b := slices.Grow(w.f.wbuf, len(tms)*seriesPointLen)
	for i, t := range tms {
		v := vals[i]
		b = appendPoint(b, float64(t)/1000, v, v, v, 1)
	}
	w.f.wbuf = b
}

// appendRawPoint appends one kind-9 point.
func appendRawPoint(b []byte, t, v float64) []byte {
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(t))
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// appendPoint appends one kind-5 point.
func appendPoint(b []byte, t, v, lo, hi float64, count uint32) []byte {
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(t))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(lo))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(hi))
	return binary.BigEndian.AppendUint32(b, count)
}

// widen turns the kind-9 frame written so far into kind 5: each point
// moves, last first, from its 16 bytes to its 36, gaining Min = Max = Value
// and Count 1 — the bytes the kind-5 encoder would have written for it.
func (w *SeriesWriter) widen() {
	f := w.f
	n := w.points
	f.wbuf = slices.Grow(f.wbuf, n*(seriesPointLen-rawPointLen))[:w.pointsAt+n*seriesPointLen]
	pts := f.wbuf[w.pointsAt:]
	for i := n - 1; i >= 0; i-- {
		t := binary.BigEndian.Uint64(pts[i*rawPointLen:])
		v := binary.BigEndian.Uint64(pts[i*rawPointLen+8:])
		at := pts[i*seriesPointLen : (i+1)*seriesPointLen]
		binary.BigEndian.PutUint64(at[0:], t)
		binary.BigEndian.PutUint64(at[8:], v)
		binary.BigEndian.PutUint64(at[16:], v)
		binary.BigEndian.PutUint64(at[24:], v)
		binary.BigEndian.PutUint32(at[32:], 1)
	}
	w.kind = binKindSeries
	f.wbuf[framePrefix] = w.kind
}

// Relay makes rep — a series reply another service sent — this reply: its
// payload (kind 5 or 9) is copied as it is once seriesShape has accepted
// it, and not a point is decoded. An error means rep is malformed and
// nothing of it was kept.
func (w *SeriesWriter) Relay(rep *SeriesReply) error {
	kind := rep.msg.binKind
	if _, _, err := seriesShape(kind, rep.msg.payload); err != nil {
		return err
	}
	w.begun, w.err, w.countAt, w.kind = true, nil, -1, kind
	w.f.begin(kind)
	w.f.wbuf = append(w.f.wbuf, rep.msg.payload...)
	return nil
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
	if w.countAt >= 0 {
		binary.BigEndian.PutUint32(w.f.wbuf[w.countAt:], uint32(w.points))
	}
	return w.f.end()
}

// SeriesReply is one KindSeries reply as it arrived, not yet decoded. It
// aliases its connection's read scratch: valid until the next read on the
// agent that produced it. A series is a binary frame; an envelope of kind
// series carries no payload, so every reader refuses it as truncated.
type SeriesReply struct {
	f   *binFramer
	msg wireMsg
}

// Body decodes the whole reply — what Agent.Query returns.
func (r *SeriesReply) Body() (SeriesBody, error) {
	return r.f.readSeries(r.msg.binKind, r.msg.payload)
}

// AppendPoints decodes only the reply's points, appending them to dst as
// store points: a gatherer that merges many replies reuses one buffer and
// never builds a SeriesBody. On error dst is returned as it came.
func (r *SeriesReply) AppendPoints(dst []tsdb.Point) ([]tsdb.Point, error) {
	kind := r.msg.binKind
	at, n, err := seriesShape(kind, r.msg.payload)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	f64 := func(b []byte) float64 { return math.Float64frombits(binary.BigEndian.Uint64(b)) }
	b := r.msg.payload[at:]
	if kind == binKindRawSeries {
		for ; n > 0; b, n = b[rawPointLen:], n-1 {
			v := f64(b[8:])
			dst = append(dst, tsdb.Point{Time: f64(b), Value: v, Min: v, Max: v, Count: 1})
		}
		return dst, nil
	}
	for ; n > 0; b, n = b[seriesPointLen:], n-1 {
		dst = append(dst, tsdb.Point{
			Time:  f64(b),
			Value: f64(b[8:]),
			Min:   f64(b[16:]),
			Max:   f64(b[24:]),
			Count: int(binary.BigEndian.Uint32(b[32:])),
		})
	}
	return dst, nil
}
