package cluster

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"testing"

	"highrpm/internal/leaktest"
	"highrpm/internal/tsdb"
)

// Frames the parent commit's encoder produced for pinQueries over
// seedPinHistory (payloads with their kind byte, without the length
// prefix): six raw points of p_node, a NaN with a payload and a −0 among
// them, and the 60 s rollup of the whole history.
const (
	parentRawSeries    = "05000370696e0006705f6e6f646500000001000000060000000000000000405680000000000040568000000000004056800000000000000000013ff00000000000004056900000000000405690000000000040569000000000000000000140000000000000007ff80000000000017ff80000000000017ff80000000000010000000140080000000000008000000000000000800000000000000080000000000000000000000140100000000000004056c000000000004056c000000000004056c000000000000000000140140000000000004056d000000000004056d000000000004056d0000000000000000001"
	parentRollupSeries = "05000370696e0006705f6e6f64650000003c00000003000000000000000040564c34115b1e6080000000000000004056e000000000000000003b404e0000000000004056b0cccccccccd40568000000000004056e000000000000000003c405e0000000000004056ae666666666640568000000000004056e000000000000000001e"
)

// pinQueries are the raw and the rollup query the parent frames answer.
var pinQueries = [2]QueryRequest{
	{NodeID: "pin", Channel: "p_node", From: 0, To: 5, ResolutionS: 1},
	{NodeID: "pin", Channel: "p_node", From: 0, To: 149, ResolutionS: 60},
}

// seedPinHistory ingests the history the parent frames were taken from.
func seedPinHistory(t testing.TB, st *tsdb.Store) {
	t.Helper()
	for i := 0; i < 150; i++ {
		v := 90 + float64(i%7)*0.25
		switch i {
		case 2:
			v = math.Float64frombits(0x7ff8000000000001)
		case 3:
			v = math.Copysign(0, -1)
		}
		if err := st.Ingest("pin", float64(i), tsdb.Sample{PNode: v, PCPU: v / 2, PMEM: v / 4, PNodePrime: v, IPMI: math.NaN()}); err != nil {
			t.Fatal(err)
		}
	}
}

// dialSeriesClient opens a binary connection to addr whose Hello offers the
// 16-byte raw point or not, requires the echo to match the offer, and
// returns the client's framer.
func dialSeriesClient(t testing.TB, addr string, offer bool) *binFramer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	f := newBinFramer(bufio.NewReader(conn), bufio.NewWriter(conn), DefaultMaxFrame)
	if err := WriteMsg(f.w, KindHello, Hello{NodeID: "series-client", Codecs: []string{CodecBinary}, RawSeries: offer}); err != nil {
		t.Fatal(err)
	}
	if err := f.w.Flush(); err != nil {
		t.Fatal(err)
	}
	env, err := ReadMsg(f.r)
	if err != nil {
		t.Fatal(err)
	}
	var reply Hello
	if err := DecodeBody(env, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Codec != CodecBinary || reply.RawSeries != offer {
		t.Fatalf("hello offering raw series %v answered %+v", offer, reply)
	}
	return f
}

// seriesFrame asks q over f and returns the reply frame, kind byte first.
func seriesFrame(t testing.TB, f *binFramer, q QueryRequest) []byte {
	t.Helper()
	if err := f.writeQuery(q); err != nil {
		t.Fatal(err)
	}
	if err := f.w.Flush(); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := f.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte{kind}, payload...)
}

// decodeFrameBody decodes a series frame without its length prefix: the
// kind byte, then the payload.
func decodeFrameBody(t testing.TB, frame []byte) SeriesBody {
	t.Helper()
	body, err := newBinFramer(nil, nil, DefaultMaxFrame).readSeries(frame[0], frame[1:])
	if err != nil {
		t.Fatalf("decode %x: %v", frame, err)
	}
	return body
}

// TestRawSeriesNeedsTheEcho: an agent offers the 16-byte raw point in every
// Hello, and a client that predates it does not. A client that never offers
// it is sent exactly the parent commit's frames for a raw and a rollup
// series; a client that offers is sent kind 9 for the raw series — the same
// body, 20 bytes a point shorter — and the unchanged kind-5 frame for the
// rollup. An Agent decodes either to the parent's body bit for bit.
func TestRawSeriesNeedsTheEcho(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	seedPinHistory(t, svc.Store())
	parent := [2][]byte{}
	for i, h := range []string{parentRawSeries, parentRollupSeries} {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		parent[i] = b
	}
	old := dialSeriesClient(t, svc.Addr(), false)
	for i, q := range pinQueries {
		if got := seriesFrame(t, old, q); !bytes.Equal(got, parent[i]) {
			t.Fatalf("%+v to a client without the offer is not the parent's frame:\ngot  %x\nwant %x", q, got, parent[i])
		}
	}
	offering := dialSeriesClient(t, svc.Addr(), true)
	raw := seriesFrame(t, offering, pinQueries[0])
	want := decodeFrameBody(t, parent[0])
	if raw[0] != binKindRawSeries || len(raw) != len(parent[0])-len(want.Points)*(seriesPointLen-rawPointLen) {
		t.Fatalf("raw series to an offering client: kind %d, %d bytes against the parent's %d", raw[0], len(raw), len(parent[0]))
	}
	if err := sameSeriesBits(decodeFrameBody(t, raw), want); err != nil {
		t.Fatalf("kind 9 decodes to another body than the parent's frame: %v", err)
	}
	if got := seriesFrame(t, offering, pinQueries[1]); !bytes.Equal(got, parent[1]) {
		t.Fatalf("rollup to an offering client changed:\ngot  %x\nwant %x", got, parent[1])
	}
	ag, err := Dial(svc.Addr(), "series-agent")
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()
	for i, q := range pinQueries {
		body, err := ag.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSeriesBits(body, decodeFrameBody(t, parent[i])); err != nil {
			t.Fatalf("%+v through an Agent: %v", q, err)
		}
	}
}

// TestSeriesWriterWidens: a writer on a connection that echoed RawSeries
// writes kind 9 while every point is a raw point. Handed raw points — as
// runs or one at a time — and then one that is not (Count 2, Min or Max
// off Value, a NaN Min whose payload differs from the NaN Value's), it
// writes the very frame a writer without the echo writes for the same
// points, kind 5 byte for byte, wherever in the series that point falls.
// An empty series on such a connection is kind 9.
func TestSeriesWriterWidens(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	raw := func(i int) tsdb.Point {
		return tsdb.RawPoint(int64(i)*1000, []float64{90, nan1, math.Copysign(0, -1), math.Inf(-1)}[i%4])
	}
	odd := map[string]tsdb.Point{
		"count 2":          {Time: 7, Value: 90, Min: 90, Max: 90, Count: 2},
		"min off value":    {Time: 7, Value: 90, Min: 89, Max: 90, Count: 1},
		"max off value":    {Time: 7, Value: 90, Min: 90, Max: 91, Count: 1},
		"NaN min payload":  {Time: 7, Value: nan1, Min: nan2, Max: nan1, Count: 1},
		"count 0, all NaN": {Time: 7, Value: nan1, Min: nan1, Max: nan1, Count: 0},
	}
	// write frames points through a writer with raw as given; runs hands the
	// leading raw points over as one Raw run when set.
	write := func(raw bool, pts []tsdb.Point, runs int) []byte {
		return encodeBinFrame(t, func(g *binFramer) error {
			w := SeriesWriter{f: g, raw: raw}
			w.reset(encBinary)
			w.Begin("n", "p_node", 1, len(pts))
			tms, vals := make([]int64, runs), make([]float64, runs)
			for i := range tms {
				tms[i], vals[i] = int64(math.Round(pts[i].Time*1000)), pts[i].Value
			}
			w.Raw(tms, vals)
			for _, p := range pts[runs:] {
				w.Point(p)
			}
			return w.finish()
		})
	}
	for name, p := range odd {
		for _, before := range []int{0, 1, 5} {
			for _, runs := range []int{0, before} {
				pts := []tsdb.Point{}
				for i := 0; i < before; i++ {
					pts = append(pts, raw(i))
				}
				pts = append(pts, p, raw(8), raw(9))
				t.Run(fmt.Sprintf("%s/after %d/runs %d", name, before, runs), func(t *testing.T) {
					got, want := write(true, pts, runs), write(false, pts, 0)
					if want[4] != binKindSeries || !bytes.Equal(got, want) {
						t.Fatalf("widened frame differs from the kind-5 encoder's:\ngot  %x\nwant %x", got, want)
					}
				})
			}
		}
	}
	pts := []tsdb.Point{raw(0), raw(1), raw(2), raw(3)}
	for _, runs := range []int{0, 2, 4} {
		got, plain := write(true, pts, runs), write(false, pts, 0)
		if got[4] != binKindRawSeries || len(got) != len(plain)-len(pts)*(seriesPointLen-rawPointLen) {
			t.Fatalf("raw points (%d as a run) framed as kind %d, %d bytes against kind 5's %d", runs, got[4], len(got), len(plain))
		}
		if err := sameSeriesBits(decodeFrameBody(t, got[framePrefix:]), decodeFrameBody(t, plain[framePrefix:])); err != nil {
			t.Fatalf("kind 9 and kind 5 decode apart: %v", err)
		}
	}
	if empty := write(true, nil, 0); empty[4] != binKindRawSeries || len(decodeFrameBody(t, empty[framePrefix:]).Points) != 0 {
		t.Fatalf("an empty series on a connection with the echo is %x, want kind 9 without points", empty)
	}
}
