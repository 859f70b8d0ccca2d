package tree

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"highrpm/internal/mat"
	"highrpm/internal/model"
)

func TestTreeFitsPiecewiseConstantExactly(t *testing.T) {
	// y = 1 for x<0, y = 5 for x≥0: one split suffices.
	x := mat.NewDense(20, 1)
	y := make([]float64, 20)
	for i := 0; i < 20; i++ {
		v := float64(i - 10)
		x.Set(i, 0, v)
		if v < 0 {
			y[i] = 1
		} else {
			y[i] = 5
		}
	}
	tr := NewRegressor()
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{-3}); got != 1 {
		t.Fatalf("Predict(-3) = %g want 1", got)
	}
	if got := tr.Predict([]float64{3}); got != 5 {
		t.Fatalf("Predict(3) = %g want 5", got)
	}
}

func TestTreeConstantTargetIsLeaf(t *testing.T) {
	x := mat.NewDense(10, 2)
	y := make([]float64, 10)
	for i := range y {
		y[i] = 4.2
		x.Set(i, 0, float64(i))
	}
	tr := NewRegressor()
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if len(tr.Nodes) != 1 || tr.Nodes[0].Feature != -1 {
		t.Fatalf("constant target should give a single leaf, got %d nodes", len(tr.Nodes))
	}
	if got := tr.Predict([]float64{99, 99}); math.Abs(got-4.2) > 1e-12 {
		t.Fatalf("leaf value = %g want 4.2", got)
	}
}

func TestTreeMaxDepthRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := mat.NewDense(200, 1)
	y := make([]float64, 200)
	for i := range y {
		x.Set(i, 0, rng.Float64())
		y[i] = rng.NormFloat64()
	}
	tr := NewRegressor()
	tr.MaxDepth = 3
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Root at depth 1 and no split at depth 3: at most 2³−1 nodes.
	if n := len(tr.Nodes); n > 7 {
		t.Fatalf("%d nodes exceed what MaxDepth 3 allows (7)", n)
	}
}

func TestTreeMinSamplesLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := mat.NewDense(100, 1)
	y := make([]float64, 100)
	for i := range y {
		x.Set(i, 0, rng.Float64())
		y[i] = rng.NormFloat64()
	}
	tr := NewRegressor()
	tr.MinSamplesLeaf = 20
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// With 100 samples and min leaf 20, at most 5 leaves exist.
	leaves := 0
	for _, n := range tr.Nodes {
		if n.Feature == -1 {
			leaves++
		}
	}
	if leaves > 5 {
		t.Fatalf("%d leaves with MinSamplesLeaf=20 on 100 samples", leaves)
	}
}

// Property: tree predictions are always within the target range (each leaf
// is a mean of a target subset).
func TestTreePredictionWithinRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(100)
		x := mat.NewDense(n, 2)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			x.Set(i, 0, rng.NormFloat64())
			x.Set(i, 1, rng.NormFloat64())
			y[i] = rng.NormFloat64() * 100
			if y[i] < lo {
				lo = y[i]
			}
			if y[i] > hi {
				hi = y[i]
			}
		}
		tr := NewRegressor()
		tr.Seed = seed
		if err := tr.Fit(x, y); err != nil {
			return false
		}
		for k := 0; k < 20; k++ {
			p := tr.Predict([]float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := mat.NewDense(100, 3)
	y := make([]float64, 100)
	for i := range y {
		for j := 0; j < 3; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		y[i] = rng.NormFloat64()
	}
	a, b := NewRegressor(), NewRegressor()
	a.Seed, b.Seed = 7, 7
	a.MaxFeatures, b.MaxFeatures = 2, 2
	if err := a.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.1, -0.2, 0.3}
	if a.Predict(probe) != b.Predict(probe) {
		t.Fatal("same seed must give identical trees")
	}
}

func TestTreeEmptyAndMismatch(t *testing.T) {
	tr := NewRegressor()
	if err := tr.Fit(mat.NewDense(1, 1), nil); err == nil {
		t.Fatal("expected mismatch error")
	}
}

// nonlinearData produces y = sin(2x0) + x1² with small noise.
func nonlinearData(n int, seed int64) (*mat.Dense, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*3, rng.Float64()*2-1
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y[i] = math.Sin(2*a) + b*b + rng.NormFloat64()*0.05
	}
	return x, y
}

func rmseOf(m model.Regressor, x *mat.Dense, y []float64) float64 {
	var sq float64
	for i := 0; i < x.Rows(); i++ {
		d := m.Predict(x.Row(i)) - y[i]
		sq += d * d
	}
	return math.Sqrt(sq / float64(x.Rows()))
}

func TestForestBeatsMeanPredictor(t *testing.T) {
	x, y := nonlinearData(400, 4)
	tx, ty := nonlinearData(100, 5)
	f := NewForest(10, 1)
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	baseline := math.Sqrt(mat.Variance(ty))
	if got := rmseOf(f, tx, ty); got > 0.6*baseline {
		t.Fatalf("forest RMSE %g vs mean-predictor %g", got, baseline)
	}
}

func TestForestHasTenTrees(t *testing.T) {
	x, y := nonlinearData(100, 6)
	f := NewForest(0, 1) // default
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if len(f.Trees) != 10 {
		t.Fatalf("forest has %d trees want 10 (Table 4)", len(f.Trees))
	}
}

func TestGradientBoostingImprovesWithStages(t *testing.T) {
	x, y := nonlinearData(400, 7)
	tx, ty := nonlinearData(100, 8)
	few := NewGradientBoosting(2, 1)
	many := NewGradientBoosting(10, 1)
	if err := few.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := many.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if rmseOf(many, tx, ty) >= rmseOf(few, tx, ty) {
		t.Fatal("more boosting stages must not hurt on this smooth target")
	}
}

func TestPredictUnfittedPanics(t *testing.T) {
	for _, m := range []model.Regressor{NewRegressor(), NewForest(3, 1), NewGradientBoosting(3, 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: expected panic", m)
				}
			}()
			m.Predict([]float64{1})
		}()
	}
}

// TestTreePersistenceRoundTrips: a Regressor is StaticTRR's residual model,
// which the model file carries as the tree's plain JSON.
func TestTreePersistenceRoundTrips(t *testing.T) {
	x, y := nonlinearData(150, 9)
	m := NewRegressor()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Regressor
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	probe := []float64{1.5, 0.3}
	if got, want := back.Predict(probe), m.Predict(probe); got != want {
		t.Fatalf("round trip: %g vs %g", got, want)
	}
}
