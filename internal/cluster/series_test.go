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

// Kind-5 frames the encoder produced for pinQueries over seedPinHistory
// before kind 9 existed (payloads with their kind byte, without the length
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

// dialSeriesClient opens a binary connection to addr and returns the
// client's framer.
func dialSeriesClient(t testing.TB, addr string) *binFramer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	f := newBinFramer(bufio.NewReader(conn), bufio.NewWriter(conn), DefaultMaxFrame)
	if err := WriteMsg(f.w, KindHello, Hello{NodeID: "series-client", Codecs: []string{CodecBinary}}); err != nil {
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
	if reply.Codec != CodecBinary {
		t.Fatalf("hello offering binary answered %+v", reply)
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

// TestSeriesWriterWidens: a binary writer writes kind 9 while every point
// is a raw point. Handed raw points — as runs or one at a time — and then
// one that is not (Count 2, Min or Max off Value, a NaN Min whose payload
// differs from the NaN Value's), it writes the very frame the kind-5
// encoder writes for the same points, byte for byte, wherever in the
// series that point falls. An empty series is kind 9. Over a live service
// the rollup widens at its first point to the pinned kind-5 frame, and the
// raw series is kind 9, 20 bytes a point shorter than its pinned kind-5
// frame and the same body bit for bit; an Agent decodes both to the pinned
// bodies.
func TestSeriesWriterWidens(t *testing.T) {
	leaktest.Check(t)
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
	// write frames points through a writer starting at kind (kind 5: the
	// kind-5 encoder, a writer widened before its first point); runs hands
	// the leading raw points over as one Raw run when set.
	write := func(kind byte, pts []tsdb.Point, runs int) []byte {
		return encodeBinFrame(t, func(g *binFramer) error {
			w := SeriesWriter{f: g}
			w.reset(encBinary)
			w.Begin("n", "p_node", 1, len(pts))
			if kind == binKindSeries {
				w.widen()
			}
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
					got, want := write(binKindRawSeries, pts, runs), write(binKindSeries, pts, 0)
					if want[4] != binKindSeries || !bytes.Equal(got, want) {
						t.Fatalf("widened frame differs from the kind-5 encoder's:\ngot  %x\nwant %x", got, want)
					}
				})
			}
		}
	}
	pts := []tsdb.Point{raw(0), raw(1), raw(2), raw(3)}
	for _, runs := range []int{0, 2, 4} {
		got, plain := write(binKindRawSeries, pts, runs), write(binKindSeries, pts, 0)
		if got[4] != binKindRawSeries || len(got) != len(plain)-len(pts)*(seriesPointLen-rawPointLen) {
			t.Fatalf("raw points (%d as a run) framed as kind %d, %d bytes against kind 5's %d", runs, got[4], len(got), len(plain))
		}
		if err := sameSeriesBits(decodeFrameBody(t, got[framePrefix:]), decodeFrameBody(t, plain[framePrefix:])); err != nil {
			t.Fatalf("kind 9 and kind 5 decode apart: %v", err)
		}
	}
	if empty := write(binKindRawSeries, nil, 0); empty[4] != binKindRawSeries || len(decodeFrameBody(t, empty[framePrefix:]).Points) != 0 {
		t.Fatalf("an empty series is %x, want kind 9 without points", empty)
	}

	svc := startService(t)
	seedPinHistory(t, svc.Store())
	var pinned [2][]byte
	for i, h := range []string{parentRawSeries, parentRollupSeries} {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		pinned[i] = b
	}
	f := dialSeriesClient(t, svc.Addr())
	rawFrame, want := seriesFrame(t, f, pinQueries[0]), decodeFrameBody(t, pinned[0])
	if rawFrame[0] != binKindRawSeries || len(rawFrame) != len(pinned[0])-len(want.Points)*(seriesPointLen-rawPointLen) {
		t.Fatalf("raw series: kind %d, %d bytes against the kind-5 frame's %d", rawFrame[0], len(rawFrame), len(pinned[0]))
	}
	if err := sameSeriesBits(decodeFrameBody(t, rawFrame), want); err != nil {
		t.Fatalf("kind 9 decodes to another body than the pinned frame: %v", err)
	}
	if got := seriesFrame(t, f, pinQueries[1]); !bytes.Equal(got, pinned[1]) {
		t.Fatalf("rollup is not the pinned kind-5 frame:\ngot  %x\nwant %x", got, pinned[1])
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
		if err := sameSeriesBits(body, decodeFrameBody(t, pinned[i])); err != nil {
			t.Fatalf("%+v through an Agent: %v", q, err)
		}
	}
}
