package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// eachPoint adapts a per-point callback to series.query's runs.
func eachPoint(emit func(tm int64, v []float64)) func(ts []int64, vals []float64) {
	return func(ts []int64, vals []float64) {
		k := len(vals) / len(ts)
		for i, tm := range ts {
			emit(tm, vals[i*k:(i+1)*k])
		}
	}
}

// collect decodes a whole series into parallel slices.
func collect(t *testing.T, s *series) (ts []int64, vals [][]float64) {
	t.Helper()
	err := s.query(math.MinInt64, math.MaxInt64, eachPoint(func(tm int64, v []float64) {
		ts = append(ts, tm)
		vals = append(vals, append([]float64(nil), v...))
	}))
	if err != nil {
		t.Fatal(err)
	}
	return ts, vals
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestBlockRoundTripRandomWalk is the core property test: random walks,
// constants, and NaN-bearing series must decode bit-exactly across block
// boundaries, under regular and jittered timestamps.
func TestBlockRoundTripRandomWalk(t *testing.T) {
	cases := []struct {
		name string
		gen  func(r *rand.Rand, i int, prev float64) float64
	}{
		{"walk", func(r *rand.Rand, i int, prev float64) float64 {
			return prev + r.NormFloat64()
		}},
		{"constant", func(r *rand.Rand, i int, prev float64) float64 {
			return 92.5
		}},
		{"sparse-nan", func(r *rand.Rand, i int, prev float64) float64 {
			if i%10 != 0 {
				return math.NaN()
			}
			return 80 + 20*r.Float64()
		}},
		{"mixed-extremes", func(r *rand.Rand, i int, prev float64) float64 {
			switch r.Intn(6) {
			case 0:
				return 0
			case 1:
				return math.Inf(1)
			case 2:
				return math.NaN()
			case 3:
				return math.SmallestNonzeroFloat64
			case 4:
				return -prev
			default:
				return r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
			}
		}},
	}
	timings := []struct {
		name string
		dt   func(r *rand.Rand) int64
	}{
		{"regular-1s", func(r *rand.Rand) int64 { return 1000 }},
		{"jitter", func(r *rand.Rand) int64 { return 950 + r.Int63n(100) }},
		{"gappy", func(r *rand.Rand) int64 {
			if r.Intn(20) == 0 {
				return 3_600_000 // an hour-long outage
			}
			return 1000
		}},
	}
	for _, tc := range cases {
		for _, tg := range timings {
			t.Run(tc.name+"/"+tg.name, func(t *testing.T) {
				r := rand.New(rand.NewSource(7))
				const n = 2000 // several 256-point blocks
				s := newSeries(1, 256, 0)
				wantT := make([]int64, n)
				wantV := make([]float64, n)
				tm, prev := int64(0), 90.0
				for i := 0; i < n; i++ {
					v := tc.gen(r, i, prev)
					if !math.IsNaN(v) {
						prev = v
					}
					wantT[i], wantV[i] = tm, v
					s.append(tm, []float64{v})
					tm += tg.dt(r)
				}
				gotT, gotV := collect(t, s)
				if len(gotT) != n {
					t.Fatalf("decoded %d points, want %d", len(gotT), n)
				}
				for i := range gotT {
					if gotT[i] != wantT[i] {
						t.Fatalf("point %d: time %d, want %d", i, gotT[i], wantT[i])
					}
					if !sameBits(gotV[i][0], wantV[i]) {
						t.Fatalf("point %d: value %x, want %x (%g vs %g)",
							i, math.Float64bits(gotV[i][0]), math.Float64bits(wantV[i]), gotV[i][0], wantV[i])
					}
				}
			})
		}
	}
}

// TestBlockMultiChainRoundTrip exercises the k=4 rollup layout: four
// independent XOR chains interleaved behind one timestamp chain.
func TestBlockMultiChainRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 700
	s := newSeries(4, 128, 0)
	want := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := []float64{
			90 + r.NormFloat64(),
			math.NaN(),
			float64(i),
			math.Float64frombits(r.Uint64()), // adversarial bit patterns
		}
		want[i] = append([]float64(nil), row...)
		s.append(int64(i)*1000, row)
	}
	ts, vals := collect(t, s)
	if len(ts) != n {
		t.Fatalf("decoded %d points, want %d", len(ts), n)
	}
	for i := range vals {
		for j := range vals[i] {
			if !sameBits(vals[i][j], want[i][j]) {
				t.Fatalf("point %d chain %d: %x want %x", i, j,
					math.Float64bits(vals[i][j]), math.Float64bits(want[i][j]))
			}
		}
	}
}

// TestSeriesBlockGrowsOnce pins the block-buffer law: a block that fills
// keeps an exact copy of its bytes, and its grown buffer opens the next
// block. So once a series has filled its first block, a further block
// costs two allocations — the block and the copy — and never regrows; a
// sealed block holds no growth slack; and recycling the buffer changes no
// decoded bit.
func TestSeriesBlockGrowsOnce(t *testing.T) {
	for _, shape := range []struct{ k, blockPoints int }{{1, 512}, {rollupChains, 128}} {
		t.Run(fmt.Sprintf("k=%d", shape.k), func(t *testing.T) {
			const warm, runs = 2, 8 // AllocsPerRun adds one unmeasured run
			k, bp := shape.k, shape.blockPoints
			n := (warm + 1 + runs) * bp
			r := rand.New(rand.NewSource(int64(k)))
			ts := make([]int64, n)
			vals := make([]float64, n*k)
			tm, w := int64(0), 120.0
			for i := range ts {
				tm += 1000 + r.Int63n(5) - 2
				w += r.NormFloat64()
				ts[i] = tm
				row := vals[i*k : (i+1)*k]
				row[0] = w
				if r.Intn(20) == 0 {
					row[0] = math.NaN() // sparse-channel gap
				}
				for c := 1; c < k; c++ {
					row[c] = w + float64(c)*r.Float64()
				}
			}
			s := newSeries(k, bp, 0)
			next := 0
			appendBlock := func() {
				for end := next + bp; next < end; next++ {
					s.append(ts[next], vals[next*k:(next+1)*k])
				}
			}
			for range warm {
				appendBlock()
			}
			if allocs := testing.AllocsPerRun(runs, appendBlock); allocs > 2 {
				t.Errorf("a block after the first costs %.0f allocations, want ≤ 2", allocs)
			}
			if s.sealed() != len(s.blocks) || len(s.blocks) != n/bp {
				t.Fatalf("%d blocks, %d sealed; want %d full ones", len(s.blocks), s.sealed(), n/bp)
			}
			for i, blk := range s.blocks {
				if cap(blk.bs.b) != len(blk.bs.b) {
					t.Errorf("sealed block %d: cap %d, len %d", i, cap(blk.bs.b), len(blk.bs.b))
				}
			}
			gotT, gotV := collect(t, s)
			if len(gotT) != n {
				t.Fatalf("decoded %d points, want %d", len(gotT), n)
			}
			for i := range gotT {
				if gotT[i] != ts[i] {
					t.Fatalf("point %d: t=%d, want %d", i, gotT[i], ts[i])
				}
				for c := range k {
					if !sameBits(gotV[i][c], vals[i*k+c]) {
						t.Fatalf("point %d chain %d: %x want %x", i, c,
							math.Float64bits(gotV[i][c]), math.Float64bits(vals[i*k+c]))
					}
				}
			}
		})
	}
}

// TestSeriesRangeQuery checks the [from, to] filter and early cutoff.
func TestSeriesRangeQuery(t *testing.T) {
	s := newSeries(1, 64, 0)
	for i := 0; i < 500; i++ {
		s.append(int64(i)*1000, []float64{float64(i)})
	}
	var got []int64
	if err := s.query(100_000, 199_000, eachPoint(func(tm int64, _ []float64) {
		got = append(got, tm)
	})); err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 || got[0] != 100_000 || got[len(got)-1] != 199_000 {
		t.Fatalf("range query returned %d points [%d..%d]", len(got), got[0], got[len(got)-1])
	}
}

// TestSeriesRetentionEvictsOldest: the ring must keep at least maxPoints
// and drop whole old blocks, never the newest data.
func TestSeriesRetentionEvictsOldest(t *testing.T) {
	s := newSeries(1, 50, 200)
	const n = 1000
	for i := 0; i < n; i++ {
		s.append(int64(i)*1000, []float64{float64(i)})
	}
	if s.points < 200 || s.points > 200+50 {
		t.Fatalf("retained %d points, want within [200, 250]", s.points)
	}
	ts, vals := func() ([]int64, [][]float64) {
		var ts []int64
		var vals [][]float64
		s.query(math.MinInt64, math.MaxInt64, eachPoint(func(tm int64, v []float64) {
			ts = append(ts, tm)
			vals = append(vals, append([]float64(nil), v...))
		}))
		return ts, vals
	}()
	if len(ts) != s.points {
		t.Fatalf("decoded %d, accounting says %d", len(ts), s.points)
	}
	// The newest point must survive; the oldest must be gone.
	if last := vals[len(vals)-1][0]; last != n-1 {
		t.Fatalf("newest retained value %g, want %d", last, n-1)
	}
	if first := vals[0][0]; first < float64(n-250) {
		t.Fatalf("oldest retained value %g; eviction lagging", first)
	}
}

// TestBitstreamTruncationDetected: a corrupted (short) stream must error,
// not fabricate points.
func TestBitstreamTruncationDetected(t *testing.T) {
	b := newBlock(1)
	for i := 0; i < 100; i++ {
		b.append(int64(i)*1000, []float64{float64(i) * 1.7})
	}
	b.bs.b = b.bs.b[:len(b.bs.b)/2]
	err := b.decodeWith(&cursor{}, func(int64, []float64) {})
	if err == nil {
		t.Fatal("decode of truncated stream succeeded")
	}
}
