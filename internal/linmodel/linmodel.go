// Package linmodel implements the four linear baselines of Table 4:
// ordinary least squares (LR, Powell et al. style), Ridge, Lasso with
// coordinate descent, and an SGD regressor with squared-error loss. These
// are the models HighRPM is compared against in Tables 5, 7 and 9.
package linmodel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"highrpm/internal/mat"
	"highrpm/internal/model"
)

// ErrNotFitted is returned from Predict on an untrained model.
var ErrNotFitted = errors.New("linmodel: model is not fitted")

// Linear is an ordinary-least-squares regressor (abbreviation LR).
type Linear struct {
	Weights   []float64 `json:"weights"`
	Intercept float64   `json:"intercept"`
}

// NewLinear returns an untrained OLS regressor.
func NewLinear() *Linear { return &Linear{} }

// Fit solves the normal equations for the weight vector and intercept.
func (l *Linear) Fit(x *mat.Dense, y []float64) error {
	r, c := x.Dims()
	if r != len(y) {
		return fmt.Errorf("linmodel: %d rows vs %d targets", r, len(y))
	}
	aug := mat.NewDense(r, c+1)
	for i := 0; i < r; i++ {
		row := aug.Row(i)
		copy(row, x.Row(i))
		row[c] = 1
	}
	w, err := mat.SolveLeastSquares(aug, y)
	if err != nil {
		return fmt.Errorf("linmodel: fit: %w", err)
	}
	l.Weights = w[:c]
	l.Intercept = w[c]
	return nil
}

// Predict evaluates the linear model on one feature vector.
func (l *Linear) Predict(features []float64) float64 {
	if l.Weights == nil {
		panic(ErrNotFitted)
	}
	return mat.Dot(l.Weights, features) + l.Intercept
}

// Ridge is an L2-regularised linear regressor (abbreviation RR).
type Ridge struct {
	Alpha     float64   `json:"alpha"`
	Weights   []float64 `json:"weights"`
	Intercept float64   `json:"intercept"`
}

// NewRidge returns a Ridge regressor with penalty alpha (sklearn default 1.0).
func NewRidge(alpha float64) *Ridge { return &Ridge{Alpha: alpha} }

// Fit solves (XᵀX + αI)w = Xᵀy with a centred intercept (the intercept is
// not penalised, matching scikit-learn's solver=auto behaviour).
func (rr *Ridge) Fit(x *mat.Dense, y []float64) error {
	r, c := x.Dims()
	if r != len(y) {
		return fmt.Errorf("linmodel: %d rows vs %d targets", r, len(y))
	}
	// Centre features and target so the intercept absorbs the means.
	xm := make([]float64, c)
	for j := 0; j < c; j++ {
		xm[j] = mat.Mean(x.Col(j))
	}
	ym := mat.Mean(y)
	cx := mat.NewDense(r, c)
	cy := make([]float64, r)
	for i := 0; i < r; i++ {
		row := x.Row(i)
		crow := cx.Row(i)
		for j := 0; j < c; j++ {
			crow[j] = row[j] - xm[j]
		}
		cy[i] = y[i] - ym
	}
	g := mat.Gram(cx)
	for j := 0; j < c; j++ {
		g.Add(j, j, rr.Alpha)
	}
	rhs := mat.MulTVec(cx, cy)
	w, err := mat.SolveCholesky(g, rhs)
	if err != nil {
		return fmt.Errorf("linmodel: ridge fit: %w", err)
	}
	rr.Weights = w
	rr.Intercept = ym - mat.Dot(w, xm)
	return nil
}

// Predict evaluates the ridge model on one feature vector.
func (rr *Ridge) Predict(features []float64) float64 {
	if rr.Weights == nil {
		panic(ErrNotFitted)
	}
	return mat.Dot(rr.Weights, features) + rr.Intercept
}

// Lasso is an L1-regularised linear regressor (abbreviation LaR) trained by
// cyclic coordinate descent with soft thresholding.
type Lasso struct {
	Alpha     float64   `json:"alpha"`
	MaxIter   int       `json:"max_iter"`
	Tol       float64   `json:"tol"`
	Weights   []float64 `json:"weights"`
	Intercept float64   `json:"intercept"`
}

// NewLasso returns a Lasso regressor with penalty alpha; maxIter/tol take
// scikit-like defaults when zero.
func NewLasso(alpha float64) *Lasso { return &Lasso{Alpha: alpha, MaxIter: 1000, Tol: 1e-6} }

// Fit runs coordinate descent on the centred problem.
func (la *Lasso) Fit(x *mat.Dense, y []float64) error {
	r, c := x.Dims()
	if r != len(y) {
		return fmt.Errorf("linmodel: %d rows vs %d targets", r, len(y))
	}
	if la.MaxIter <= 0 {
		la.MaxIter = 1000
	}
	if la.Tol <= 0 {
		la.Tol = 1e-6
	}
	xm := make([]float64, c)
	for j := 0; j < c; j++ {
		xm[j] = mat.Mean(x.Col(j))
	}
	ym := mat.Mean(y)
	cols := make([][]float64, c)
	colSq := make([]float64, c)
	for j := 0; j < c; j++ {
		col := x.Col(j)
		for i := range col {
			col[i] -= xm[j]
			colSq[j] += col[i] * col[i]
		}
		cols[j] = col
	}
	resid := make([]float64, r)
	for i := range resid {
		resid[i] = y[i] - ym
	}
	w := make([]float64, c)
	lam := la.Alpha * float64(r) // sklearn scales the penalty by n
	for iter := 0; iter < la.MaxIter; iter++ {
		var maxDelta float64
		for j := 0; j < c; j++ {
			if colSq[j] == 0 {
				continue
			}
			// rho = x_jᵀ(resid + w_j x_j)
			rho := mat.Dot(cols[j], resid) + w[j]*colSq[j]
			nw := softThreshold(rho, lam) / colSq[j]
			//lint:ignore floateq exact no-op check: the update is skipped only when the coordinate is bit-identical
			if nw != w[j] {
				mat.AXPY(w[j]-nw, cols[j], resid)
				if d := math.Abs(nw - w[j]); d > maxDelta {
					maxDelta = d
				}
				w[j] = nw
			}
		}
		if maxDelta < la.Tol {
			break
		}
	}
	la.Weights = w
	la.Intercept = ym - mat.Dot(w, xm)
	return nil
}

func softThreshold(x, lam float64) float64 {
	switch {
	case x > lam:
		return x - lam
	case x < -lam:
		return x + lam
	default:
		return 0
	}
}

// Predict evaluates the lasso model on one feature vector.
func (la *Lasso) Predict(features []float64) float64 {
	if la.Weights == nil {
		panic(ErrNotFitted)
	}
	return mat.Dot(la.Weights, features) + la.Intercept
}

// SGD is a linear regressor trained with stochastic gradient descent on the
// squared-error loss (Table 4: squared_error, max_iter=10000). A small L2
// penalty and inverse-scaling learning rate match scikit defaults.
type SGD struct {
	MaxIter   int     `json:"max_iter"`
	Eta0      float64 `json:"eta0"`
	Alpha     float64 `json:"alpha"`
	Seed      int64   `json:"seed"`
	Weights   []float64
	Intercept float64
}

// NewSGD returns an SGD regressor with paper/scikit defaults.
func NewSGD(seed int64) *SGD {
	return &SGD{MaxIter: 10000, Eta0: 0.01, Alpha: 1e-4, Seed: seed}
}

// Fit runs epoch-based SGD with per-sample updates. Inputs are expected to
// be standardized (wrap with model.ScaledRegressor for raw counters).
func (s *SGD) Fit(x *mat.Dense, y []float64) error {
	r, c := x.Dims()
	if r != len(y) {
		return fmt.Errorf("linmodel: %d rows vs %d targets", r, len(y))
	}
	if s.MaxIter <= 0 {
		s.MaxIter = 10000
	}
	if s.Eta0 <= 0 {
		s.Eta0 = 0.01
	}
	rng := rand.New(rand.NewSource(s.Seed))
	w := make([]float64, c)
	var b float64
	order := rng.Perm(r)
	t := 1.0
	// max_iter in scikit counts epochs; cap total updates so huge inputs
	// stay bounded while small ones still converge.
	epochs := s.MaxIter
	maxUpdates := 2_000_000
	if epochs*r > maxUpdates {
		epochs = maxUpdates / r
		if epochs < 1 {
			epochs = 1
		}
	}
	for e := 0; e < epochs; e++ {
		rng.Shuffle(r, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			row := x.Row(i)
			pred := mat.Dot(w, row) + b
			g := pred - y[i]
			eta := s.Eta0 / math.Pow(t, 0.25) // inverse scaling
			for j, xv := range row {
				w[j] -= eta * (g*xv + s.Alpha*w[j])
			}
			b -= eta * g
			t++
		}
	}
	s.Weights = w
	s.Intercept = b
	return nil
}

// Predict evaluates the SGD model on one feature vector.
func (s *SGD) Predict(features []float64) float64 {
	if s.Weights == nil {
		panic(ErrNotFitted)
	}
	return mat.Dot(s.Weights, features) + s.Intercept
}

// Interface conformance checks.
var (
	_ model.Regressor = (*Linear)(nil)
	_ model.Regressor = (*Ridge)(nil)
	_ model.Regressor = (*Lasso)(nil)
	_ model.Regressor = (*SGD)(nil)
)
