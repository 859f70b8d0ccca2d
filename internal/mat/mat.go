// Package mat provides the small dense linear-algebra kernel used by the
// regression models in this repository: vectors, row-major matrices, and the
// factorizations (Cholesky, QR) needed to solve least-squares systems.
//
// The package is deliberately minimal — it implements exactly what the power
// models require and nothing more — but every operation validates its shapes
// and the solvers detect rank deficiency instead of silently producing NaNs.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned by solvers when the system matrix is singular or
// numerically rank-deficient.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a rows×cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix by copying the given rows, which must all have the
// same length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		panic("mat: FromRows with no rows")
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("mat: ragged row %d (len %d, want %d)", i, len(r), c))
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m
}

// Dims returns the matrix dimensions.
func (m *Dense) Dims() (rows, cols int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add increments the element at (i, j) by v.
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col copies column j into a new slice.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols:]
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = ri[j]
		}
	}
	return out
}

// Mul returns a*b.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		ar := a.data[i*a.cols : (i+1)*a.cols]
		or := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns a·x for a vector x of length a.cols.
func MulVec(a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec shape mismatch %dx%d · %d", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		out[i] = Dot(a.data[i*a.cols:(i+1)*a.cols], x)
	}
	return out
}

// MulTVec returns aᵀ·x for a vector x of length a.rows.
func MulTVec(a *Dense, x []float64) []float64 {
	if a.rows != len(x) {
		panic(fmt.Sprintf("mat: MulTVec shape mismatch %dx%dᵀ · %d", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		ar := a.data[i*a.cols : (i+1)*a.cols]
		for j, av := range ar {
			out[j] += xi * av
		}
	}
	return out
}

// Gram returns aᵀ·a (cols×cols, symmetric).
func Gram(a *Dense) *Dense {
	out := NewDense(a.cols, a.cols)
	for i := 0; i < a.rows; i++ {
		r := a.data[i*a.cols : (i+1)*a.cols]
		for p, rp := range r {
			if rp == 0 {
				continue
			}
			orow := out.data[p*a.cols:]
			for q := p; q < a.cols; q++ {
				orow[q] += rp * r[q]
			}
		}
	}
	for p := 0; p < a.cols; p++ { // mirror upper triangle
		for q := p + 1; q < a.cols; q++ {
			out.data[q*a.cols+p] = out.data[p*a.cols+q]
		}
	}
	return out
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// AXPY computes y += alpha*x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// Scale multiplies every element of v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// SolveCholesky solves the symmetric positive-definite system a·x = b using
// a Cholesky factorization. a is not modified.
func SolveCholesky(a *Dense, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("mat: SolveCholesky on non-square %dx%d", a.rows, a.cols))
	}
	if len(b) != n {
		panic(fmt.Sprintf("mat: SolveCholesky rhs length %d, want %d", len(b), n))
	}
	// Factor a = L·Lᵀ.
	l := a.Clone()
	for j := 0; j < n; j++ {
		d := l.data[j*n+j]
		for k := 0; k < j; k++ {
			ljk := l.data[j*n+k]
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrSingular
		}
		d = math.Sqrt(d)
		l.data[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := l.data[i*n+j]
			for k := 0; k < j; k++ {
				s -= l.data[i*n+k] * l.data[j*n+k]
			}
			l.data[i*n+j] = s / d
		}
	}
	// Forward substitution L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.data[i*n+k] * y[k]
		}
		y[i] = s / l.data[i*n+i]
	}
	// Back substitution Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.data[k*n+i] * x[k]
		}
		x[i] = s / l.data[i*n+i]
	}
	return x, nil
}

// SolveLeastSquares solves min‖a·x − b‖₂ via the normal equations with a tiny
// ridge term for numerical safety. a is n×p with n ≥ p.
func SolveLeastSquares(a *Dense, b []float64) ([]float64, error) {
	if a.rows != len(b) {
		panic(fmt.Sprintf("mat: SolveLeastSquares rhs length %d, want %d", len(b), a.rows))
	}
	g := Gram(a)
	// Jitter scaled to the trace keeps the factorization stable without
	// visibly biasing the solution.
	var tr float64
	for j := 0; j < g.cols; j++ {
		tr += g.At(j, j)
	}
	eps := 1e-12 * (tr/float64(g.cols) + 1)
	for j := 0; j < g.cols; j++ {
		g.Add(j, j, eps)
	}
	rhs := MulTVec(a, b)
	return SolveCholesky(g, rhs)
}

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v.
func Variance(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}
