package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEvaluatePerfect(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	m := Evaluate(obs, obs)
	if m.MAPE != 0 || m.RMSE != 0 || m.MAE != 0 {
		t.Fatalf("perfect prediction gave %v", m)
	}
	if m.R2 != 1 {
		t.Fatalf("perfect prediction R2 = %g want 1", m.R2)
	}
	if m.N != 4 {
		t.Fatalf("N = %d want 4", m.N)
	}
}

func TestEvaluateKnown(t *testing.T) {
	obs := []float64{100, 100}
	pred := []float64{110, 90}
	m := Evaluate(obs, pred)
	if math.Abs(m.MAPE-10) > 1e-12 {
		t.Fatalf("MAPE = %g want 10", m.MAPE)
	}
	if math.Abs(m.RMSE-10) > 1e-12 {
		t.Fatalf("RMSE = %g want 10", m.RMSE)
	}
	if math.Abs(m.MAE-10) > 1e-12 {
		t.Fatalf("MAE = %g want 10", m.MAE)
	}
}

func TestEvaluateZeroObservationsExcludedFromMAPE(t *testing.T) {
	m := Evaluate([]float64{0, 100}, []float64{5, 110})
	if math.Abs(m.MAPE-10) > 1e-12 {
		t.Fatalf("MAPE = %g want 10 (zero obs excluded)", m.MAPE)
	}
	if m.N != 2 {
		t.Fatalf("N = %d want 2 (zero obs still counted in MAE/RMSE)", m.N)
	}
}

func TestEvaluateNaNSkipped(t *testing.T) {
	m := Evaluate([]float64{math.NaN(), 100}, []float64{1, 100})
	if m.N != 1 {
		t.Fatalf("N = %d want 1", m.N)
	}
}

func TestEvaluateLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Evaluate([]float64{1}, []float64{1, 2})
}

func TestEvaluateEmpty(t *testing.T) {
	m := Evaluate(nil, nil)
	if m.N != 0 {
		t.Fatalf("empty eval N = %d", m.N)
	}
}

// Property: RMSE ≥ MAE always (Cauchy–Schwarz), and both are ≥ 0.
func TestRMSEGreaterEqualMAE(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		obs := make([]float64, n)
		pred := make([]float64, n)
		for i := range obs {
			obs[i] = rng.NormFloat64()*10 + 50
			pred[i] = rng.NormFloat64()*10 + 50
		}
		m := Evaluate(obs, pred)
		return m.RMSE >= m.MAE-1e-12 && m.MAE >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAverage(t *testing.T) {
	avg := Average([]Metrics{
		{MAPE: 10, RMSE: 2, MAE: 1, R2: 0.8, N: 5},
		{MAPE: 20, RMSE: 4, MAE: 3, R2: 0.6, N: 7},
	})
	if avg.MAPE != 15 || avg.RMSE != 3 || avg.MAE != 2 {
		t.Fatalf("Average = %+v", avg)
	}
	if math.Abs(avg.R2-0.7) > 1e-12 {
		t.Fatalf("avg R2 = %g", avg.R2)
	}
	if avg.N != 12 {
		t.Fatalf("avg N = %d want 12 (summed)", avg.N)
	}
	if (Average(nil) != Metrics{}) {
		t.Fatal("Average(nil) must be zero")
	}
}

// Property: Running matches direct mean/min/max/std computation.
func TestRunningMatchesDirect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		var r Running
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
			r.Push(vals[i])
		}
		var sum float64
		mn, mx := vals[0], vals[0]
		for _, v := range vals {
			sum += v
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		mean := sum / float64(n)
		var sq float64
		for _, v := range vals {
			sq += (v - mean) * (v - mean)
		}
		std := math.Sqrt(sq / float64(n))
		return r.N() == n &&
			math.Abs(r.Mean()-mean) < 1e-9 &&
			r.Min() == mn && r.Max() == mx &&
			math.Abs(r.Std()-std) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsString(t *testing.T) {
	s := Metrics{MAPE: 4.46, RMSE: 3.19, MAE: 2.78, R2: 0.91, N: 100}.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
