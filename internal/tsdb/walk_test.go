package tsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"highrpm/internal/leaktest"
)

// mergeNodeSeriesReference is MergeNodeSeries as it stood before the
// accumulators became values — a heap object per timestamp, a key slice, a
// sort per merge — kept as the law the production merge is held to: per key,
// accumulation in slice order, bit for bit.
func mergeNodeSeriesReference(results [][]Point) []Point {
	type agg struct {
		sum, min, max float64
		count         int
		nodes         int
	}
	acc := map[int64]*agg{}
	for i := range results {
		for _, p := range results[i] {
			key := int64(math.Round(p.Time * 1000))
			a := acc[key]
			if a == nil {
				a = &agg{}
				acc[key] = a
			}
			if !math.IsNaN(p.Value) {
				a.sum += p.Value
				a.min += p.Min
				a.max += p.Max
				a.count += p.Count
				a.nodes++
			}
		}
	}
	keys := make([]int64, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	pts := make([]Point, 0, len(keys))
	for _, k := range keys {
		a := acc[k]
		p := Point{Time: float64(k) / 1000, Value: math.NaN(), Min: math.NaN(), Max: math.NaN()}
		if a.nodes > 0 {
			p.Value, p.Min, p.Max, p.Count = a.sum, a.min, a.max, a.count
		}
		pts = append(pts, p)
	}
	return pts
}

// samePointBits compares two series bit for bit, NaN payloads included.
func samePointBits(a, b []Point) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d points against %d", len(a), len(b))
	}
	bits := math.Float64bits
	for i := range a {
		p, q := a[i], b[i]
		if bits(p.Time) != bits(q.Time) || bits(p.Value) != bits(q.Value) || bits(p.Min) != bits(q.Min) ||
			bits(p.Max) != bits(q.Max) || p.Count != q.Count {
			return fmt.Errorf("point %d: %+v against %+v", i, p, q)
		}
	}
	return nil
}

// TestMergeNodeSeriesMatchesReference is the merge's seeded property test:
// over random node counts, unequal lengths, gaps, NaN values and keys where
// every node is NaN, in the raw shape and the rollup shape, the merge equals
// the reference bit for bit. Values are sums of many different magnitudes,
// so an accumulation order that strayed from slice order would show in the
// low bits. The last rounds hand it series out of time order, which no store
// produces, to pin that the order keys are first met in never reaches the
// result.
func TestMergeNodeSeriesMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		rollup := seed%2 == 0
		step := 1.0
		if rollup {
			step = 60
		}
		results := make([][]Point, r.Intn(9))
		allNaN := r.Intn(40) // a key every node reports NaN for
		for i := range results {
			start, n := r.Intn(20), r.Intn(60)
			for k := start; k < start+n; k++ {
				if r.Intn(8) == 0 {
					continue // a gap
				}
				v := math.Exp(r.NormFloat64()*8) * float64(1-2*r.Intn(2))
				p := Point{Time: float64(k) * step, Value: v, Min: v, Max: v, Count: 1}
				if rollup {
					p.Min, p.Max, p.Count = v-r.Float64(), v+r.Float64(), 1+r.Intn(60)
				}
				if k == allNaN || r.Intn(10) == 0 {
					p.Value, p.Min, p.Max, p.Count = math.NaN(), math.NaN(), math.NaN(), 0
					if !rollup {
						p.Count = 1
					}
				}
				results[i] = append(results[i], p)
			}
			if seed > 180 {
				r.Shuffle(len(results[i]), func(a, b int) { results[i][a], results[i][b] = results[i][b], results[i][a] })
			}
		}
		if err := samePointBits(MergeNodeSeries(results), mergeNodeSeriesReference(results)); err != nil {
			t.Fatalf("seed %d (rollup %v): merge against reference: %v", seed, rollup, err)
		}
	}
	if got := MergeNodeSeries(nil); got == nil || len(got) != 0 {
		t.Fatalf("merge of nothing = %#v, want an empty, non-nil series (it marshals as [])", got)
	}
}

// recordingSink is a SeriesSink that keeps what it is handed: the points,
// raw runs widened through RawPoint, and how they arrived.
type recordingSink struct {
	begins, hint int
	node, ch     string
	res          int
	pts          []Point
	runs, points int // Raw calls, Point calls
}

func (s *recordingSink) Begin(node, channel string, resolutionS, n int) {
	s.begins++
	s.node, s.ch, s.res, s.hint = node, channel, resolutionS, n
	s.pts = s.pts[:0]
}

func (s *recordingSink) Point(p Point) { s.points++; s.pts = append(s.pts, p) }

func (s *recordingSink) Raw(tms []int64, vals []float64) {
	s.runs++
	for i, t := range tms {
		s.pts = append(s.pts, RawPoint(t, vals[i]))
	}
}

// TestWalkSeriesIsTheQueryPath: WalkSeries hands a sink exactly what the
// collecting Query, Aggregate and QuerySeries return — every channel, every
// resolution, the open rollup bucket, the aggregate — announces a size hint
// that bounds it, validates like them, and moves Stats.Queries and
// Stats.PointsReturned as they do. A node's raw points arrive as runs, at
// most one per block the window overlaps and never empty, and the runs of a
// store with the decoded-block cache and of one without it are the same
// points bit for bit. The windows start and end mid-block, span blocks, sit
// inside one block, and hold nothing at all.
func TestWalkSeriesIsTheQueryPath(t *testing.T) {
	leaktest.Check(t)
	const blockPoints = 64
	cached := New(Options{BlockPoints: blockPoints})
	uncached := New(Options{BlockPoints: blockPoints, CachePoints: -1})
	defer cached.Close()
	defer uncached.Close()
	for _, st := range []*Store{cached, uncached} {
		ingestRamp(t, st, "a", 400, 10)
		ingestRamp(t, st, "b", 333, 7)
	}
	windows := [][2]float64{
		{17.5, 390},   // mid-block to mid-block, across blocks
		{70.2, 100.9}, // inside one block
		{64, 127},     // exactly one block
		{0, 1e9},      // everything
		{50.2, 50.8},  // between two points
		{1000, 2000},  // past the newest point
		{90, 80},      // from after to
	}
	for _, node := range []string{"a", "b", ""} {
		for _, ch := range Channels() {
			for _, res := range []Resolution{Raw, TenSeconds, Minute} {
				for _, win := range windows {
					from, to := win[0], win[1]
					what := fmt.Sprintf("%q/%s@%ds [%v, %v]", node, ch, int(res), from, to)
					var first []Point
					for si, st := range []*Store{cached, uncached} {
						what := fmt.Sprintf("%s store %d", what, si)
						var want []Point
						var err error
						before := st.Stats()
						if node == "" {
							want, err = st.Aggregate(ch, from, to, res)
						} else {
							want, err = st.Query(node, ch, from, to, res)
						}
						if err != nil {
							t.Fatal(err)
						}
						mid := st.Stats()
						var sink recordingSink
						if err := st.WalkSeries(node, string(ch), from, to, int(res), &sink); err != nil {
							t.Fatal(err)
						}
						after := st.Stats()
						if err := samePointBits(sink.pts, want); err != nil {
							t.Fatalf("%s: walk against collector: %v", what, err)
						}
						if sink.begins != 1 || sink.node != node || sink.ch != string(ch) || sink.res != int(res) || sink.hint < len(want) {
							t.Fatalf("%s: Begin ×%d (%q, %q, %d) with hint %d for %d points", what, sink.begins, sink.node, sink.ch, sink.res, sink.hint, len(want))
						}
						rawNode := node != "" && res == Raw
						if rawNode && (sink.points != 0 || (sink.runs > 0) != (len(want) > 0)) || !rawNode && sink.runs != 0 {
							t.Fatalf("%s: %d runs and %d single points for %d points", what, sink.runs, sink.points, len(want))
						}
						if sink.runs > 0 && (sink.runs > len(want)/blockPoints+2 || sink.runs > len(want)) {
							t.Fatalf("%s: %d runs for %d points in %d-point blocks", what, sink.runs, len(want), blockPoints)
						}
						if dq, dp := after.Queries-mid.Queries, after.PointsReturned-mid.PointsReturned; dq != mid.Queries-before.Queries || dp != mid.PointsReturned-before.PointsReturned {
							t.Fatalf("%s: walk counted %d queries / %d points, collector %d / %d", what, dq, dp, mid.Queries-before.Queries, mid.PointsReturned-before.PointsReturned)
						}
						body, err := st.QuerySeries(node, string(ch), from, to, int(res))
						if err != nil {
							t.Fatal(err)
						}
						got, gerr := json.Marshal(body)
						wantJSON, werr := json.Marshal(SeriesBody{NodeID: node, Channel: string(ch), ResolutionS: int(res), Points: ToSeriesPoints(want)})
						if gerr != nil || werr != nil || !bytes.Equal(got, wantJSON) {
							t.Fatalf("%s: QuerySeries marshals to\n%s\nthe collected points to\n%s", what, got, wantJSON)
						}
						if si == 0 {
							first = want
						} else if err := samePointBits(want, first); err != nil {
							t.Fatalf("%s: uncached store against cached: %v", what, err)
						}
					}
				}
			}
		}
	}
	if a, b := cached.Stats(), uncached.Stats(); a.Queries != b.Queries || a.PointsReturned != b.PointsReturned {
		t.Fatalf("cached store counted %d queries / %d points, uncached %d / %d", a.Queries, a.PointsReturned, b.Queries, b.PointsReturned)
	}
	var sink recordingSink
	for _, bad := range []struct {
		node, ch string
		res      int
	}{{"a", "bogus", 1}, {"", "bogus", 1}, {"a", "p_node", 7}, {"ghost", "p_node", 1}} {
		_, want := cached.QuerySeries(bad.node, bad.ch, 0, 10, bad.res)
		got := cached.WalkSeries(bad.node, bad.ch, 0, 10, bad.res, &sink)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Fatalf("%+v: walk says %v, QuerySeries says %v", bad, got, want)
		}
	}
	if sink.begins != 0 {
		t.Fatal("a rejected request reached the sink")
	}
}
