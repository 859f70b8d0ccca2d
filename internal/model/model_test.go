package model

import (
	"math"
	"math/rand"
	"testing"

	"highrpm/internal/mat"
)

func TestFitScalerStandardizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := mat.NewDense(200, 3)
	for i := 0; i < 200; i++ {
		x.Set(i, 0, rng.NormFloat64()*10+5)
		x.Set(i, 1, rng.NormFloat64()*0.01-3)
		x.Set(i, 2, 7) // constant column
	}
	s := FitScaler(x)
	tx := s.Transform(x)
	for j := 0; j < 2; j++ {
		col := tx.Col(j)
		if m := mat.Mean(col); math.Abs(m) > 1e-9 {
			t.Fatalf("col %d mean = %g", j, m)
		}
		if v := mat.Variance(col); math.Abs(v-1) > 1e-6 {
			t.Fatalf("col %d variance = %g", j, v)
		}
	}
	// Constant column passes through shifted but not exploded.
	if got := tx.At(0, 2); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("constant column produced %g", got)
	}
}

func TestTransformRowMatchesTransform(t *testing.T) {
	x := mat.FromRows([][]float64{{1, 10}, {3, 30}, {5, 50}})
	s := FitScaler(x)
	full := s.Transform(x)
	for i := 0; i < 3; i++ {
		row := s.TransformRow(x.Row(i))
		for j := range row {
			if row[j] != full.At(i, j) {
				t.Fatalf("row %d mismatch", i)
			}
		}
	}
}

func TestTransformShapePanics(t *testing.T) {
	s := FitScaler(mat.FromRows([][]float64{{1, 2}}))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.TransformRow([]float64{1})
}

func TestSubset(t *testing.T) {
	x := mat.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := []float64{10, 20, 30}
	sx, sy := Subset(x, y, []int{2, 0})
	if sx.At(0, 0) != 5 || sx.At(1, 0) != 1 {
		t.Fatal("Subset rows wrong")
	}
	if sy[0] != 30 || sy[1] != 10 {
		t.Fatal("Subset targets wrong")
	}
	sx2, sy2 := Subset(x, nil, []int{1})
	if sy2 != nil || sx2.Rows() != 1 {
		t.Fatal("Subset with nil y wrong")
	}
}

// meanModel predicts a constant; usable as a trivial Regressor.
type meanModel struct{ mean float64 }

func (m *meanModel) Fit(x *mat.Dense, y []float64) error {
	m.mean = mat.Mean(y)
	return nil
}
func (m *meanModel) Predict([]float64) float64 { return m.mean }

func TestScaledRegressorRoundTrip(t *testing.T) {
	// ScaledRegressor must be transparent for a scale-invariant model.
	x := mat.FromRows([][]float64{{100}, {200}, {300}})
	y := []float64{1, 2, 3}
	s := &ScaledRegressor{Inner: &meanModel{}}
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := s.Predict([]float64{150}); got != 2 {
		t.Fatalf("Predict = %g want 2", got)
	}
}

func TestPredictBatch(t *testing.T) {
	m := &meanModel{mean: 7}
	x := mat.NewDense(3, 1)
	out := PredictBatch(m, x)
	if len(out) != 3 || out[0] != 7 {
		t.Fatalf("PredictBatch = %v", out)
	}
}
