package linmodel

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"highrpm/internal/mat"
	"highrpm/internal/model"
)

// linearData builds y = coef·x + intercept (+ optional noise).
func linearData(n int, coef []float64, intercept, noise float64, seed int64) (*mat.Dense, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(n, len(coef))
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := range coef {
			x.Set(i, j, rng.NormFloat64()*3)
		}
		y[i] = mat.Dot(x.Row(i), coef) + intercept + rng.NormFloat64()*noise
	}
	return x, y
}

func TestLinearRecoversExact(t *testing.T) {
	coef := []float64{2, -3, 0.5}
	x, y := linearData(100, coef, 7, 0, 1)
	m := NewLinear()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for j := range coef {
		if math.Abs(m.Weights[j]-coef[j]) > 1e-6 {
			t.Fatalf("weight %d = %g want %g", j, m.Weights[j], coef[j])
		}
	}
	if math.Abs(m.Intercept-7) > 1e-6 {
		t.Fatalf("intercept = %g want 7", m.Intercept)
	}
	if got := m.Predict([]float64{1, 1, 1}); math.Abs(got-(2-3+0.5+7)) > 1e-6 {
		t.Fatalf("Predict = %g", got)
	}
}

// Property: on noise-free data of any shape, OLS reproduces the targets.
func TestLinearInterpolatesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(4)
		coef := make([]float64, p)
		for j := range coef {
			coef[j] = rng.NormFloat64() * 5
		}
		x, y := linearData(p*5+10, coef, rng.NormFloat64(), 0, seed+1)
		m := NewLinear()
		if err := m.Fit(x, y); err != nil {
			return false
		}
		for i := 0; i < x.Rows(); i++ {
			if math.Abs(m.Predict(x.Row(i))-y[i]) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearShapeMismatch(t *testing.T) {
	if err := NewLinear().Fit(mat.NewDense(3, 2), []float64{1, 2}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestLinearPredictUnfittedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLinear().Predict([]float64{1})
}

func TestRidgeShrinksTowardZero(t *testing.T) {
	coef := []float64{5}
	x, y := linearData(60, coef, 0, 0.1, 3)
	small := NewRidge(0.001)
	big := NewRidge(1e6)
	if err := small.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := big.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(big.Weights[0]) >= math.Abs(small.Weights[0]) {
		t.Fatalf("ridge did not shrink: %g vs %g", big.Weights[0], small.Weights[0])
	}
	if math.Abs(small.Weights[0]-5) > 0.1 {
		t.Fatalf("light ridge weight = %g want ~5", small.Weights[0])
	}
}

func TestRidgeInterceptUnpenalised(t *testing.T) {
	// Large intercept, zero slope: heavy ridge must keep the intercept.
	x, y := linearData(60, []float64{0}, 100, 0.01, 4)
	m := NewRidge(1e5)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Intercept-100) > 0.5 {
		t.Fatalf("intercept = %g want ~100", m.Intercept)
	}
}

func TestLassoZeroesIrrelevantFeature(t *testing.T) {
	// Feature 1 is pure noise: lasso must zero it out.
	rng := rand.New(rand.NewSource(5))
	x := mat.NewDense(200, 2)
	y := make([]float64, 200)
	for i := 0; i < 200; i++ {
		x.Set(i, 0, rng.NormFloat64())
		x.Set(i, 1, rng.NormFloat64())
		y[i] = 3*x.At(i, 0) + rng.NormFloat64()*0.01
	}
	m := NewLasso(0.5)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if m.Weights[1] != 0 {
		t.Fatalf("lasso kept irrelevant weight %g", m.Weights[1])
	}
	if m.Weights[0] < 1 {
		t.Fatalf("lasso killed the relevant weight: %g", m.Weights[0])
	}
}

func TestLassoZeroPenaltyMatchesOLS(t *testing.T) {
	coef := []float64{2, -1}
	x, y := linearData(120, coef, 3, 0, 6)
	la := NewLasso(1e-9)
	if err := la.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for j := range coef {
		if math.Abs(la.Weights[j]-coef[j]) > 1e-3 {
			t.Fatalf("weight %d = %g want %g", j, la.Weights[j], coef[j])
		}
	}
}

func TestSGDApproximatesLinear(t *testing.T) {
	coef := []float64{1.5, -2}
	x, y := linearData(300, coef, 4, 0.05, 7)
	// SGD assumes standardized inputs.
	s := &model.ScaledRegressor{Inner: NewSGD(1)}
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var sq float64
	for i := 0; i < x.Rows(); i++ {
		d := s.Predict(x.Row(i)) - y[i]
		sq += d * d
	}
	rmse := math.Sqrt(sq / float64(x.Rows()))
	if rmse > 0.5 {
		t.Fatalf("SGD RMSE = %g want < 0.5", rmse)
	}
}

func TestSGDDeterministicPerSeed(t *testing.T) {
	x, y := linearData(50, []float64{2}, 0, 0.1, 8)
	a := NewSGD(42)
	b := NewSGD(42)
	if err := a.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if a.Weights[0] != b.Weights[0] || a.Intercept != b.Intercept {
		t.Fatal("same seed must give identical SGD fits")
	}
}

func TestPersistenceRoundTrips(t *testing.T) {
	coef := []float64{2, -1}
	x, y := linearData(80, coef, 1, 0, 9)
	probe := []float64{0.3, -0.7}

	for _, c := range []struct{ m, back model.Regressor }{
		{NewLinear(), &Linear{}}, {NewRidge(1.0), &Ridge{}}, {NewLasso(0.001), &Lasso{}},
	} {
		m := c.m
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, c.back); err != nil {
			t.Fatal(err)
		}
		if got, want := c.back.Predict(probe), m.Predict(probe); got != want {
			t.Fatalf("%T round trip: %g vs %g", m, got, want)
		}
	}
}
