package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("new matrix not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestSetAtAdd(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 3.5)
	m.Add(0, 1, 1.5)
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %g want 5", got)
	}
}

func TestIndexPanics(t *testing.T) {
	m := NewDense(2, 2)
	for _, fn := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(0, 2, 1) },
		func() { m.Row(5) },
		func() { m.Col(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range access")
				}
			}()
			fn()
		}()
	}
}

func TestFromRowsRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowIsView(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.Row(1)[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestColIsCopy(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	col := m.Col(0)
	col[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Col must copy")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	r, c := tr.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("T dims = %d,%d", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %g want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewDense(5, 3)
	x := make([]float64, 3)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	xm := NewDense(3, 1)
	for j, v := range x {
		xm.Set(j, 0, v)
	}
	want := Mul(a, xm)
	got := MulVec(a, x)
	for i := range got {
		if !almostEq(got[i], want.At(i, 0), 1e-12) {
			t.Fatalf("MulVec[%d] = %g want %g", i, got[i], want.At(i, 0))
		}
	}
}

func TestMulTVecMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewDense(4, 3)
	y := make([]float64, 4)
	for i := 0; i < 4; i++ {
		y[i] = rng.NormFloat64()
		for j := 0; j < 3; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	want := MulVec(a.T(), y)
	got := MulTVec(a, y)
	for j := range got {
		if !almostEq(got[j], want[j], 1e-12) {
			t.Fatalf("MulTVec[%d] = %g want %g", j, got[j], want[j])
		}
	}
}

// Property: Gram(a) equals aᵀ·a and is symmetric.
func TestGramProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 2 + rng.Intn(6)
		c := 1 + rng.Intn(5)
		a := NewDense(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		g := Gram(a)
		want := Mul(a.T(), a)
		for p := 0; p < c; p++ {
			for q := 0; q < c; q++ {
				if !almostEq(g.At(p, q), want.At(p, q), 1e-9) {
					return false
				}
				if g.At(p, q) != g.At(q, p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSolveCholeskyKnown(t *testing.T) {
	// SPD system with a known solution.
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	x, err := SolveCholesky(a, []float64{10, 8})
	if err != nil {
		t.Fatal(err)
	}
	// 4x + 2y = 10, 2x + 3y = 8 → x = 1.75, y = 1.5
	if !almostEq(x[0], 1.75, 1e-10) || !almostEq(x[1], 1.5, 1e-10) {
		t.Fatalf("solution = %v want [1.75 1.5]", x)
	}
}

func TestSolveCholeskySingular(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := SolveCholesky(a, []float64{1, 1}); err == nil {
		t.Fatal("expected ErrSingular for rank-deficient matrix")
	}
}

// Property: SolveCholesky solves random SPD systems to high accuracy.
func TestSolveCholeskyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		b := NewDense(n+2, n) // tall random matrix → bᵀb is SPD a.s.
		for i := 0; i < n+2; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, rng.NormFloat64()+1e-3)
			}
		}
		a := Gram(b)
		for j := 0; j < n; j++ {
			a.Add(j, j, 0.1) // guarantee positive definiteness
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x, err := SolveCholesky(a, rhs)
		if err != nil {
			return false
		}
		back := MulVec(a, x)
		for i := range back {
			if !almostEq(back[i], rhs[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSolveLeastSquaresRecovers(t *testing.T) {
	// Noise-free linear data: least squares must recover the coefficients.
	rng := rand.New(rand.NewSource(3))
	coef := []float64{2, -1, 0.5}
	a := NewDense(40, 3)
	b := make([]float64, 40)
	for i := 0; i < 40; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = Dot(a.Row(i), coef)
	}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := range coef {
		if !almostEq(x[j], coef[j], 1e-6) {
			t.Fatalf("coef[%d] = %g want %g", j, x[j], coef[j])
		}
	}
}

func TestDotAXPYScaleNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	y := []float64{1, 1}
	AXPY(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("AXPY = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Fatalf("Scale = %v", y)
	}
}

func TestMeanVariance(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(v) != 5 {
		t.Fatalf("Mean = %g", Mean(v))
	}
	if Variance(v) != 4 {
		t.Fatalf("Variance = %g", Variance(v))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty input must give 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}
