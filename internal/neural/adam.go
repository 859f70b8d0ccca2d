// Package neural implements the neural models of Table 4 from scratch:
// the MLP baseline ("NN", hidden=30) which is also HighRPM's SRR head
// (§4.3), and the LSTM/GRU recurrent baselines which also provide
// DynamicTRR's sequence model (§4.2.2). All training uses hand-written
// backpropagation with the Adam optimiser; no external libraries.
package neural

import (
	"math"
	"math/rand"
)

// tensor is a parameter block with its gradient and Adam moment buffers.
type tensor struct {
	W []float64 // parameters, row-major when 2-D
	G []float64 // accumulated gradient
	m []float64 // Adam first moment
	v []float64 // Adam second moment
	R int       // rows (R=1 for bias vectors)
	C int       // cols
}

func newTensor(rows, cols int) *tensor {
	n := rows * cols
	return &tensor{
		W: make([]float64, n),
		G: make([]float64, n),
		m: make([]float64, n),
		v: make([]float64, n),
		R: rows, C: cols,
	}
}

// initXavier fills the tensor with Glorot-uniform values.
func (t *tensor) initXavier(rng *rand.Rand) {
	limit := math.Sqrt(6 / float64(t.R+t.C))
	for i := range t.W {
		t.W[i] = (rng.Float64()*2 - 1) * limit
	}
}

// zeroGrad clears the accumulated gradient.
func (t *tensor) zeroGrad() {
	for i := range t.G {
		t.G[i] = 0
	}
}

// adam holds optimizer state shared by all tensors of a network.
type adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	step    int
	tensors []*tensor
}

func newAdam(lr float64, tensors ...*tensor) *adam {
	if lr <= 0 {
		lr = 1e-3
	}
	return &adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, tensors: tensors}
}

// Step applies one Adam update using each tensor's accumulated gradient
// divided by batchSize, then clears the gradients. Gradients are clipped to
// a global norm of clip (0 disables clipping) to keep RNN training stable.
func (a *adam) Step(batchSize int, clip float64) {
	a.step++
	inv := 1 / float64(batchSize)
	if clip > 0 {
		var norm float64
		for _, t := range a.tensors {
			for _, g := range t.G {
				g *= inv
				norm += g * g
			}
		}
		norm = math.Sqrt(norm)
		if norm > clip {
			inv *= clip / norm
		}
	}
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, t := range a.tensors {
		for i := range t.W {
			g := t.G[i] * inv
			t.m[i] = a.Beta1*t.m[i] + (1-a.Beta1)*g
			t.v[i] = a.Beta2*t.v[i] + (1-a.Beta2)*g*g
			mh := t.m[i] / c1
			vh := t.v[i] / c2
			t.W[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
			t.G[i] = 0
		}
	}
}

// newDetRand returns a deterministic rand.Rand for weight initialisation.
func newDetRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// sigmoid is the logistic function.
func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// scaler1d standardizes a single stream of values.
type scaler1d struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
}

func fitScaler1d(vals []float64) scaler1d {
	var s, sq float64
	for _, v := range vals {
		s += v
	}
	mean := s / float64(len(vals))
	for _, v := range vals {
		d := v - mean
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(vals)))
	if std == 0 {
		std = 1
	}
	return scaler1d{Mean: mean, Std: std}
}

func (s scaler1d) fwd(v float64) float64 { return (v - s.Mean) / s.Std }
func (s scaler1d) inv(v float64) float64 { return v*s.Std + s.Mean }

// scalerND standardizes feature vectors column-wise.
type scalerND struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

func fitScalerND(rows [][]float64) scalerND {
	if len(rows) == 0 {
		return scalerND{}
	}
	c := len(rows[0])
	s := scalerND{Mean: make([]float64, c), Std: make([]float64, c)}
	n := float64(len(rows))
	for _, r := range rows {
		for j, v := range r {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, r := range rows {
		for j, v := range r {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s
}

func (s scalerND) fwd(row []float64) []float64 {
	out := make([]float64, len(row))
	s.fwdInto(out, row)
	return out
}

// width is the row width the scaler standardizes, or -1 when a decoded
// scaler's mean and std disagree.
func (s scalerND) width() int {
	if len(s.Mean) != len(s.Std) {
		return -1
	}
	return len(s.Mean)
}

// fwdInto standardizes row into dst, which must have the same length.
func (s scalerND) fwdInto(dst, row []float64) {
	for j, v := range row {
		dst[j] = (v - s.Mean[j]) / s.Std[j]
	}
}
