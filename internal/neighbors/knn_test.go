package neighbors

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"highrpm/internal/mat"
)

func TestKNNExactNeighbors(t *testing.T) {
	// Training points on a line; query at 0.9 with k=3 must average the
	// targets of x = 1, 0 and 2 (distances 0.1, 0.9, 1.1).
	x := mat.FromRows([][]float64{{0}, {1}, {2}, {10}})
	y := []float64{0, 10, 20, 100}
	k := NewKNN(3)
	if err := k.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	want := (0.0 + 10 + 20) / 3
	if got := k.Predict([]float64{0.9}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Predict = %g want %g", got, want)
	}
}

func TestKNNK1IsNearest(t *testing.T) {
	x := mat.FromRows([][]float64{{0, 0}, {5, 5}, {10, 0}})
	y := []float64{1, 2, 3}
	k := NewKNN(1)
	if err := k.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := k.Predict([]float64{9, 1}); got != 3 {
		t.Fatalf("Predict = %g want 3", got)
	}
}

func TestKNNDefaultsToThree(t *testing.T) {
	if NewKNN(0).K != 3 {
		t.Fatal("default k must be 3 (Table 4)")
	}
}

func TestKNNTooFewRows(t *testing.T) {
	if err := NewKNN(3).Fit(mat.NewDense(2, 1), []float64{1, 2}); err == nil {
		t.Fatal("expected error: rows < k")
	}
}

func TestKNNMismatch(t *testing.T) {
	if err := NewKNN(1).Fit(mat.NewDense(3, 1), []float64{1}); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestKNNUnfittedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKNN(1).Predict([]float64{0})
}

// Property: KNN's prediction equals the brute-force sort-based answer.
func TestKNNMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		kv := 1 + rng.Intn(4)
		x := mat.NewDense(n, 3)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < 3; j++ {
				x.Set(i, j, rng.NormFloat64())
			}
			y[i] = rng.NormFloat64() * 10
		}
		k := NewKNN(kv)
		if err := k.Fit(x, y); err != nil {
			return false
		}
		q := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		got := k.Predict(q)

		type pair struct {
			d float64
			y float64
		}
		pairs := make([]pair, n)
		for i := 0; i < n; i++ {
			pairs[i] = pair{sqDist(x.Row(i), q), y[i]}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].d < pairs[b].d })
		var want float64
		for i := 0; i < kv; i++ {
			want += pairs[i].y
		}
		want /= float64(kv)
		// Ties in distance can legitimately pick either neighbor.
		tie := kv < len(pairs) && pairs[kv-1].d == pairs[kv].d
		return math.Abs(got-want) < 1e-9 || tie
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKNNPersistenceRoundTrips(t *testing.T) {
	x := mat.FromRows([][]float64{{0}, {1}, {2}, {3}})
	y := []float64{0, 1, 2, 3}
	k := NewKNN(2)
	if err := k.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	var back KNN
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	probe := []float64{1.4}
	if got, want := back.Predict(probe), k.Predict(probe); got != want {
		t.Fatalf("round trip: %g vs %g", got, want)
	}
}
