package svm

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"highrpm/internal/linmodel"
	"highrpm/internal/mat"
	"highrpm/internal/model"
)

// sineData is a smooth nonlinear target a linear model cannot fit.
func sineData(n int, seed int64) (*mat.Dense, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.Float64()*6 - 3
		x.Set(i, 0, v)
		y[i] = math.Sin(2*v) + rng.NormFloat64()*0.02
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

func TestSVRBeatsLinearOnNonlinearTarget(t *testing.T) {
	x, y := sineData(400, 1)
	tx, ty := sineData(100, 2)
	s := NewSVR(3)
	s.Gamma = 2 // the 1-D sine needs a narrower kernel than 1/num_features
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	lr := linmodel.NewLinear()
	if err := lr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	sErr, lErr := rmseOf(s, tx, ty), rmseOf(lr, tx, ty)
	if sErr >= lErr {
		t.Fatalf("SVR RMSE %g must beat linear %g on sin(2x)", sErr, lErr)
	}
	if sErr > 0.35 {
		t.Fatalf("SVR RMSE %g too high", sErr)
	}
}

func TestSVRFitsLinearTargetToo(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := mat.NewDense(300, 2)
	y := make([]float64, 300)
	for i := 0; i < 300; i++ {
		x.Set(i, 0, rng.NormFloat64())
		x.Set(i, 1, rng.NormFloat64())
		y[i] = 2*x.At(i, 0) - x.At(i, 1)
	}
	s := NewSVR(5)
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := rmseOf(s, x, y); got > 0.5 {
		t.Fatalf("SVR RMSE on linear data = %g", got)
	}
}

func TestSVRDeterministicPerSeed(t *testing.T) {
	x, y := sineData(100, 6)
	a, b := NewSVR(9), NewSVR(9)
	if err := a.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if a.Predict([]float64{0.5}) != b.Predict([]float64{0.5}) {
		t.Fatal("same seed must give identical SVR fits")
	}
}

func TestSVRShapeMismatch(t *testing.T) {
	if err := NewSVR(1).Fit(mat.NewDense(3, 1), []float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestSVRUnfittedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSVR(1).Predict([]float64{1})
}

func TestSVRConstantTarget(t *testing.T) {
	x := mat.NewDense(50, 1)
	y := make([]float64, 50)
	for i := range y {
		x.Set(i, 0, float64(i))
		y[i] = 7
	}
	s := NewSVR(2)
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := s.Predict([]float64{25}); math.Abs(got-7) > 0.5 {
		t.Fatalf("constant target predicted as %g", got)
	}
}

func TestSVRPersistenceRoundTrips(t *testing.T) {
	x, y := sineData(150, 7)
	s := NewSVR(8)
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back SVR
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	probe := []float64{1.2}
	if got, want := back.Predict(probe), s.Predict(probe); got != want {
		t.Fatalf("round trip: %g vs %g", got, want)
	}
}
