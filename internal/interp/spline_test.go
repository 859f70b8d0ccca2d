package interp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSplinePassesThroughKnots(t *testing.T) {
	xs := []float64{0, 1, 2.5, 4, 7}
	ys := []float64{1, 3, -2, 0, 5}
	s, err := NewCubicSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if got := s.At(x); math.Abs(got-ys[i]) > 1e-9 {
			t.Fatalf("At(%g) = %g want %g", x, got, ys[i])
		}
	}
}

func TestSplineReproducesLine(t *testing.T) {
	// A natural cubic spline through collinear points is the line itself.
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2*x + 1
	}
	s, err := NewCubicSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for x := -1.0; x <= 5; x += 0.1 {
		if got := s.At(x); math.Abs(got-(2*x+1)) > 1e-9 {
			t.Fatalf("At(%g) = %g want %g", x, got, 2*x+1)
		}
	}
}

func TestSplineSmoothFunctionAccuracy(t *testing.T) {
	// Dense knots on a sine: mid-point error must be small.
	var xs, ys []float64
	for x := 0.0; x <= 10; x += 0.5 {
		xs = append(xs, x)
		ys = append(ys, math.Sin(x))
	}
	s, err := NewCubicSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.25; x < 10; x += 0.5 {
		if got := s.At(x); math.Abs(got-math.Sin(x)) > 1e-2 {
			t.Fatalf("At(%g) = %g want %g", x, got, math.Sin(x))
		}
	}
}

func TestSplineUnsortedInput(t *testing.T) {
	s, err := NewCubicSpline([]float64{2, 0, 1}, []float64{4, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(1); math.Abs(got-1) > 1e-9 {
		t.Fatalf("unsorted input mishandled: At(1) = %g", got)
	}
}

func TestSplineErrors(t *testing.T) {
	if _, err := NewCubicSpline([]float64{1}, []float64{1}); err != ErrTooFewPoints {
		t.Fatalf("want ErrTooFewPoints, got %v", err)
	}
	if _, err := NewCubicSpline([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("want duplicate-knot error")
	}
	if _, err := NewCubicSpline([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("want length-mismatch error")
	}
}

func TestSplineTwoPointsIsLine(t *testing.T) {
	s, err := NewCubicSpline([]float64{0, 2}, []float64{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(1); math.Abs(got-2) > 1e-12 {
		t.Fatalf("At(1) = %g want 2", got)
	}
	if got := s.At(3); math.Abs(got-6) > 1e-12 {
		t.Fatalf("extrapolated At(3) = %g want 6", got)
	}
}

func TestSplineExtrapolationIsLinear(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 1, 4, 9}
	s, err := NewCubicSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	// Beyond the knots the second difference must vanish (linear).
	d1 := s.At(5) - s.At(4)
	d2 := s.At(6) - s.At(5)
	if math.Abs(d1-d2) > 1e-9 {
		t.Fatalf("extrapolation is not linear: %g vs %g", d1, d2)
	}
}

// Property: spline interpolation of random data always passes through its
// knots and returns finite values in between.
func TestSplineKnotProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		x := 0.0
		for i := range xs {
			x += 0.1 + rng.Float64()
			xs[i] = x
			ys[i] = rng.NormFloat64() * 50
		}
		s, err := NewCubicSpline(xs, ys)
		if err != nil {
			return false
		}
		for i := range xs {
			if math.Abs(s.At(xs[i])-ys[i]) > 1e-6 {
				return false
			}
		}
		for k := 0; k < 20; k++ {
			v := s.At(xs[0] + rng.Float64()*(xs[n-1]-xs[0]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplineSampleAndKnots(t *testing.T) {
	s, err := NewCubicSpline([]float64{0, 1, 2}, []float64{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	out := s.Sample([]float64{0, 1, 2})
	if len(out) != 3 || math.Abs(out[1]-1) > 1e-9 {
		t.Fatalf("Sample = %v", out)
	}
}
