package neural

import (
	"math"
	"math/rand"
	"testing"
)

// seqLoss runs a window through a single cell and returns
// L = Σ_t ½‖h_t‖², the simplest loss touching every gate path.
func seqLoss(c cell, xs [][]float64) float64 {
	sc := c.newScratch()
	st, _ := sc.begin(len(xs))
	var loss float64
	for t, x := range xs {
		st = c.step(sc, t, x, st)
		for _, h := range st.h {
			loss += 0.5 * h * h
		}
	}
	return loss
}

// seqBackward accumulates analytic gradients of seqLoss into the cell's
// tensors via backpropagation through time.
func seqBackward(c cell, xs [][]float64) {
	sc := c.newScratch()
	st, dst := sc.begin(len(xs))
	states := make([]cellState, 0, len(xs))
	for t, x := range xs {
		st = c.step(sc, t, x, st)
		states = append(states, cellState{h: append([]float64(nil), st.h...)})
	}
	for t := len(xs) - 1; t >= 0; t-- {
		for i, h := range states[t].h {
			dst.h[i] += h // dL/dh_t from the loss
		}
		_, dprev := c.back(sc, t, dst)
		dst = dprev
	}
}

// gradCheck compares analytic and numeric gradients for every parameter.
func gradCheck(t *testing.T, build func() cell) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	c := build()
	xs := make([][]float64, 3)
	for i := range xs {
		x := make([]float64, c.inputSize())
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		xs[i] = x
	}
	for _, tns := range c.tensors() {
		tns.zeroGrad()
	}
	seqBackward(c, xs)
	const eps = 1e-5
	for ti, tns := range c.tensors() {
		for k := range tns.W {
			orig := tns.W[k]
			tns.W[k] = orig + eps
			lp := seqLoss(c, xs)
			tns.W[k] = orig - eps
			lm := seqLoss(c, xs)
			tns.W[k] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := tns.G[k]
			denom := math.Max(1, math.Abs(numeric)+math.Abs(analytic))
			if math.Abs(numeric-analytic)/denom > 1e-4 {
				t.Fatalf("tensor %d param %d: analytic %g vs numeric %g", ti, k, analytic, numeric)
			}
		}
	}
}

func TestLSTMCellGradients(t *testing.T) {
	gradCheck(t, func() cell { return newLSTMCell(3, 4, newDetRand(1)) })
}

func TestGRUCellGradients(t *testing.T) {
	gradCheck(t, func() cell { return newGRUCell(3, 4, newDetRand(2)) })
}

// TestStackedInputGradient verifies dx from the top cell is correct by
// finite-differencing the input of a one-step sequence.
func TestStackedInputGradient(t *testing.T) {
	for name, build := range map[string]func() cell{
		"lstm": func() cell { return newLSTMCell(3, 4, newDetRand(3)) },
		"gru":  func() cell { return newGRUCell(3, 4, newDetRand(4)) },
	} {
		c := build()
		x := []float64{0.3, -0.5, 0.7}
		sc := c.newScratch()
		st0, dst := sc.begin(1)
		st := c.step(sc, 0, x, st0)
		copy(dst.h, st.h) // loss = ½‖h‖²
		dxRef, _ := c.back(sc, 0, dst)
		dx := append([]float64(nil), dxRef...)

		// stepLoss evaluates ½‖h‖² for one perturbed step; the loss must be
		// read before the next step reuses the scratch state buffer.
		stepLoss := func() float64 {
			s0, _ := sc.begin(1)
			h := c.step(sc, 0, x, s0)
			var l float64
			for _, hv := range h.h {
				l += 0.5 * hv * hv
			}
			return l
		}
		const eps = 1e-5
		for j := range x {
			orig := x[j]
			x[j] = orig + eps
			lp := stepLoss()
			x[j] = orig - eps
			lm := stepLoss()
			x[j] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-dx[j]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("%s dx[%d]: analytic %g vs numeric %g", name, j, dx[j], numeric)
			}
		}
	}
}

// TestMLPGradients finite-differences the MLP's backprop on one sample.
func TestMLPGradients(t *testing.T) {
	n := NewMLP([]int{5}, 2, 7)
	// Initialise with a tiny fit so scalers exist, then grad-check.
	rngData := rand.New(rand.NewSource(8))
	xs := make([]float64, 3)
	ys := make([]float64, 2)
	for j := range xs {
		xs[j] = rngData.NormFloat64()
	}
	for j := range ys {
		ys[j] = rngData.NormFloat64()
	}
	n.XScaler = scalerND{Mean: []float64{0, 0, 0}, Std: []float64{1, 1, 1}}
	n.YScaler = []scaler1d{{Mean: 0, Std: 1}, {Mean: 0, Std: 1}}
	n.initNet(3)
	for _, tns := range append(append([]*tensor{}, n.Win...), n.Bin...) {
		tns.zeroGrad()
	}
	ex := n.exec
	ex.backprop(&n.XScaler, n.YScaler, xs, ys)

	loss := func() float64 {
		acts := ex.forward(&n.XScaler, xs)
		out := acts[len(acts)-1]
		var l float64
		for j := range out {
			d := out[j] - ys[j]
			l += 0.5 * d * d
		}
		return l
	}
	const eps = 1e-6
	check := func(tns *tensor, label string) {
		for k := range tns.W {
			orig := tns.W[k]
			tns.W[k] = orig + eps
			lp := loss()
			tns.W[k] = orig - eps
			lm := loss()
			tns.W[k] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-tns.G[k]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %g vs numeric %g", label, k, tns.G[k], numeric)
			}
		}
	}
	for l := range n.Win {
		check(n.Win[l], "W")
		check(n.Bin[l], "b")
	}
}
