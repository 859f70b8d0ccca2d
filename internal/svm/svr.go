// Package svm implements the SVM baseline of Table 4 as an ε-insensitive
// support-vector regressor over an RBF kernel. Because the repository is
// stdlib-only, the RBF kernel is approximated with random Fourier features
// (Rahimi & Recht), turning the kernel machine into a linear SVR in feature
// space trained with averaged stochastic subgradient descent. DESIGN.md §4
// documents this substitution; the hypothesis class (shift-invariant kernel
// machine) is preserved.
package svm

import (
	"fmt"
	"math"
	"math/rand"

	"highrpm/internal/mat"
	"highrpm/internal/model"
)

// SVR is an epsilon-insensitive RBF support-vector regressor using random
// Fourier features. Inputs should be standardized (wrap with
// model.ScaledRegressor) so the default Gamma is meaningful.
type SVR struct {
	C        float64 `json:"c"`        // regularisation weight (sklearn default 1.0)
	Epsilon  float64 `json:"epsilon"`  // insensitive-tube half width (default 0.1)
	Gamma    float64 `json:"gamma"`    // RBF bandwidth; 0 means 1/num_features
	Features int     `json:"features"` // number of random Fourier features (default 128)
	Epochs   int     `json:"epochs"`   // SGD epochs (default 40)
	Seed     int64   `json:"seed"`

	// Fitted state.
	Omega   [][]float64 `json:"omega"` // feature projection frequencies
	Phase   []float64   `json:"phase"` // feature phases
	Weights []float64   `json:"weights"`
	Bias    float64     `json:"bias"`
	YMean   float64     `json:"y_mean"`
	YScale  float64     `json:"y_scale"`
}

// NewSVR returns an SVR with scikit-like defaults.
func NewSVR(seed int64) *SVR {
	return &SVR{C: 1.0, Epsilon: 0.1, Features: 128, Epochs: 40, Seed: seed}
}

// Fit draws the random feature map and trains the linear SVR on top of it.
func (s *SVR) Fit(x *mat.Dense, y []float64) error {
	r, c := x.Dims()
	if r != len(y) {
		return fmt.Errorf("svm: %d rows vs %d targets", r, len(y))
	}
	if s.Features <= 0 {
		s.Features = 128
	}
	if s.Epochs <= 0 {
		s.Epochs = 40
	}
	if s.C <= 0 {
		s.C = 1
	}
	gamma := s.Gamma
	if gamma <= 0 {
		gamma = 1 / float64(c)
	}
	rng := rand.New(rand.NewSource(s.Seed))

	// ω ~ N(0, 2γ·I), b ~ U[0, 2π): φ(x) = √(2/D)·cos(ωᵀx + b).
	s.Omega = make([][]float64, s.Features)
	s.Phase = make([]float64, s.Features)
	sigma := math.Sqrt(2 * gamma)
	for d := range s.Omega {
		w := make([]float64, c)
		for j := range w {
			w[j] = rng.NormFloat64() * sigma
		}
		s.Omega[d] = w
		s.Phase[d] = rng.Float64() * 2 * math.Pi
	}

	// Standardize the target like sklearn users typically do for SVR; the
	// epsilon tube is defined in scaled units.
	s.YMean = mat.Mean(y)
	s.YScale = math.Sqrt(mat.Variance(y))
	if s.YScale == 0 {
		s.YScale = 1
	}
	ys := make([]float64, r)
	for i := range ys {
		ys[i] = (y[i] - s.YMean) / s.YScale
	}

	// Pre-compute feature vectors once; r×Features is small at our scale.
	feats := make([][]float64, r)
	for i := 0; i < r; i++ {
		feats[i] = s.featurize(x.Row(i))
	}

	// Averaged stochastic subgradient descent on
	//   (1/2)‖w‖² + C·Σ max(0, |wᵀφ+b − y| − ε).
	lambda := 1 / (s.C * float64(r))
	w := make([]float64, s.Features)
	avgW := make([]float64, s.Features)
	var b, avgB float64
	order := rng.Perm(r)
	t := 1.0
	var updates float64
	for e := 0; e < s.Epochs; e++ {
		rng.Shuffle(r, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			eta := 1 / (lambda * t)
			if eta > 10 {
				eta = 10
			}
			pred := mat.Dot(w, feats[i]) + b
			err := pred - ys[i]
			// Regularisation shrink.
			mat.Scale(1-eta*lambda, w)
			switch {
			case err > s.Epsilon:
				mat.AXPY(-eta, feats[i], w)
				b -= eta
			case err < -s.Epsilon:
				mat.AXPY(eta, feats[i], w)
				b += eta
			}
			mat.AXPY(1, w, avgW)
			avgB += b
			updates++
			t++
		}
	}
	mat.Scale(1/updates, avgW)
	s.Weights = avgW
	s.Bias = avgB / updates
	return nil
}

// featurize maps x through the random Fourier feature map.
func (s *SVR) featurize(x []float64) []float64 {
	out := make([]float64, s.Features)
	scale := math.Sqrt(2 / float64(s.Features))
	for d, w := range s.Omega {
		out[d] = scale * math.Cos(mat.Dot(w, x)+s.Phase[d])
	}
	return out
}

// Predict evaluates the SVR on one (standardized) feature vector.
func (s *SVR) Predict(features []float64) float64 {
	if s.Weights == nil {
		panic("svm: model is not fitted")
	}
	phi := s.featurize(features)
	return (mat.Dot(s.Weights, phi)+s.Bias)*s.YScale + s.YMean
}

var _ model.Regressor = (*SVR)(nil)
