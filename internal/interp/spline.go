// Package interp implements the interpolation methods StaticTRR builds on
// (§4.2.1): natural cubic splines for recovering the long-term node-power
// trend from sparse integrated-measurement readings, and the AR baseline the
// ablation contrasts them with.
package interp

import (
	"errors"
	"fmt"
	"sort"
)

// ErrTooFewPoints is returned when a spline is requested through fewer than
// two knots.
var ErrTooFewPoints = errors.New("interp: need at least two points")

// CubicSpline is a natural cubic spline through a set of (x, y) knots.
// Outside the knot range it extrapolates with the boundary cubic segment's
// tangent line, which keeps DynamicTRR-style look-ahead bounded.
type CubicSpline struct {
	xs, ys []float64
	// Per-segment coefficients: y = a + b·dx + c·dx² + d·dx³.
	b, c, d []float64
}

// NewCubicSpline fits a natural cubic spline through the given knots. The
// inputs are copied and sorted by x; duplicate x values are rejected.
func NewCubicSpline(xs, ys []float64) (*CubicSpline, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("interp: %d xs vs %d ys", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return nil, ErrTooFewPoints
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	sx := make([]float64, n)
	sy := make([]float64, n)
	for i, j := range idx {
		sx[i] = xs[j]
		sy[i] = ys[j]
	}
	for i := 1; i < n; i++ {
		//lint:ignore floateq exact duplicate-knot detection: any nonzero gap is a valid spline interval
		if sx[i] == sx[i-1] {
			return nil, fmt.Errorf("interp: duplicate knot x=%g", sx[i])
		}
	}
	s := &CubicSpline{xs: sx, ys: sy}
	if n == 2 {
		// Degenerates to the connecting line.
		s.b = []float64{(sy[1] - sy[0]) / (sx[1] - sx[0])}
		s.c = []float64{0}
		s.d = []float64{0}
		return s, nil
	}
	// Solve the tridiagonal system for second derivatives (natural BCs).
	h := make([]float64, n-1)
	for i := 0; i < n-1; i++ {
		h[i] = sx[i+1] - sx[i]
	}
	// Thomas algorithm over interior nodes 1..n-2.
	diag := make([]float64, n)
	rhs := make([]float64, n)
	upper := make([]float64, n)
	diag[0], diag[n-1] = 1, 1
	for i := 1; i < n-1; i++ {
		diag[i] = 2 * (h[i-1] + h[i])
		rhs[i] = 3 * ((sy[i+1]-sy[i])/h[i] - (sy[i]-sy[i-1])/h[i-1])
		upper[i] = h[i]
	}
	// Forward sweep (lower entries are h[i-1]).
	for i := 2; i < n-1; i++ {
		w := h[i-1] / diag[i-1]
		diag[i] -= w * upper[i-1]
		rhs[i] -= w * rhs[i-1]
	}
	c := make([]float64, n)
	for i := n - 2; i >= 1; i-- {
		c[i] = (rhs[i] - upper[i]*c[i+1]) / diag[i]
	}
	s.b = make([]float64, n-1)
	s.c = make([]float64, n-1)
	s.d = make([]float64, n-1)
	for i := 0; i < n-1; i++ {
		s.c[i] = c[i]
		s.b[i] = (sy[i+1]-sy[i])/h[i] - h[i]*(2*c[i]+c[i+1])/3
		s.d[i] = (c[i+1] - c[i]) / (3 * h[i])
	}
	return s, nil
}

// At evaluates the spline at x.
func (s *CubicSpline) At(x float64) float64 {
	n := len(s.xs)
	if x <= s.xs[0] {
		// Linear extrapolation with the left boundary tangent.
		return s.ys[0] + s.b[0]*(x-s.xs[0])
	}
	if x >= s.xs[n-1] {
		i := n - 2
		dx := s.xs[n-1] - s.xs[i]
		// Tangent slope at the last knot.
		slope := s.b[i] + 2*s.c[i]*dx + 3*s.d[i]*dx*dx
		return s.ys[n-1] + slope*(x-s.xs[n-1])
	}
	i := sort.SearchFloat64s(s.xs, x) - 1
	if i < 0 {
		i = 0
	}
	dx := x - s.xs[i]
	return s.ys[i] + dx*(s.b[i]+dx*(s.c[i]+dx*s.d[i]))
}

// Sample evaluates the spline at each x in xs.
func (s *CubicSpline) Sample(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = s.At(x)
	}
	return out
}
