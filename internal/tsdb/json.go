package tsdb

import (
	"encoding/json"
	"math"
)

// This file is the JSON series encoding shared by every surface that ships
// store points: the cluster TCP protocol (KindSeries replies), the obs
// HTTP API (/api/v1/query, /api/v1/series) and the highrpm-query -json
// output all marshal the same SeriesBody, so a series is byte-identical no
// matter which door it left through.

// NullFloat marshals NaN/Inf as JSON null (encoding/json rejects them) and
// restores null as NaN, so sparse channels survive the wire.
type NullFloat float64

// MarshalJSON renders non-finite values as null.
func (f NullFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON restores null as NaN.
func (f *NullFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = NullFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = NullFloat(v)
	return nil
}

// SeriesPoint is one wire-encoded store point (see Point).
type SeriesPoint struct {
	Time  float64   `json:"t"`
	Value NullFloat `json:"v"`
	Min   NullFloat `json:"min"`
	Max   NullFloat `json:"max"`
	Count int       `json:"n"`
}

// SeriesBody is one encoded series: the answer to a cluster KindQuery and
// the payload of the obs HTTP series endpoints.
type SeriesBody struct {
	NodeID      string        `json:"node_id,omitempty"` // empty: aggregate
	Channel     string        `json:"channel"`
	ResolutionS int           `json:"resolution_s"`
	Points      []SeriesPoint `json:"points"`
}

// Wire converts one store point for the wire.
func (p Point) Wire() SeriesPoint {
	return SeriesPoint{
		Time:  p.Time,
		Value: NullFloat(p.Value),
		Min:   NullFloat(p.Min),
		Max:   NullFloat(p.Max),
		Count: p.Count,
	}
}

// ToSeriesPoints converts store points for the wire.
func ToSeriesPoints(pts []Point) []SeriesPoint {
	out := make([]SeriesPoint, len(pts))
	for i, p := range pts {
		out[i] = p.Wire()
	}
	return out
}

// StorePoints converts the wire points back to store points, e.g. for
// tracefile.WriteSeries.
func (b SeriesBody) StorePoints() []Point {
	out := make([]Point, len(b.Points))
	for i, p := range b.Points {
		out[i] = Point{
			Time:  p.Time,
			Value: float64(p.Value),
			Min:   float64(p.Min),
			Max:   float64(p.Max),
			Count: p.Count,
		}
	}
	return out
}

// SeriesSink receives one series in wire order: Begin once the request is
// validated, carrying the reply header and n, an upper bound on the points
// to follow, then the points, oldest first. A node's raw points arrive as
// runs — Raw, one call per decoded block, tms[i] milliseconds and vals[i]
// the exact ingested float64 — and read as RawPoint(tms[i], vals[i]);
// rollup buckets and aggregate points arrive one Point at a time. A run
// aliases the store's decoded blocks: a sink copies what it keeps and never
// writes to it. A node's points arrive under its shard lock, so a sink only
// appends to memory; whatever it does with a socket waits until WalkSeries
// has returned.
type SeriesSink interface {
	Begin(node, channel string, resolutionS, n int)
	Point(p Point)
	Raw(tms []int64, vals []float64)
}

// WalkSeries resolves one series request into sink: a node's channel (or,
// with node empty, the cluster-wide aggregate) over [from, to] seconds at
// resolutionS (0 selects raw). A node's points go from the block walk to
// the sink without a []Point in between. After an error the sink may hold
// a partial series; the caller discards it.
func (st *Store) WalkSeries(node, channel string, from, to float64, resolutionS int, sink SeriesSink) error {
	res, err := ParseResolution(resolutionS)
	if err != nil {
		return err
	}
	if node != "" {
		return st.walk(node, Channel(channel), from, to, res, sink)
	}
	pts, err := st.Aggregate(Channel(channel), from, to, res)
	if err != nil {
		return err
	}
	sink.Begin("", channel, int(res), len(pts))
	for _, p := range pts {
		sink.Point(p)
	}
	return nil
}

// bodySink is the SeriesSink that collects a SeriesBody.
type bodySink struct{ body SeriesBody }

func (s *bodySink) Begin(node, channel string, resolutionS, n int) {
	s.body = SeriesBody{NodeID: node, Channel: channel, ResolutionS: resolutionS, Points: make([]SeriesPoint, 0, n)}
}

func (s *bodySink) Point(p Point) { s.body.Points = append(s.body.Points, p.Wire()) }

func (s *bodySink) Raw(tms []int64, vals []float64) {
	for i, t := range tms {
		s.body.Points = append(s.body.Points, RawPoint(t, vals[i]).Wire())
	}
}

// QuerySeries resolves one series request in its wire form, collecting
// WalkSeries into a SeriesBody. The TCP KindQuery handler answers through
// the same walk and the HTTP /api/v1/series endpoint through this method,
// which is what keeps their JSON byte-for-byte identical.
func (st *Store) QuerySeries(node, channel string, from, to float64, resolutionS int) (SeriesBody, error) {
	var s bodySink
	if err := st.WalkSeries(node, channel, from, to, resolutionS, &s); err != nil {
		return SeriesBody{}, err
	}
	return s.body, nil
}
