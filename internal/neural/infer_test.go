package neural

import (
	"math"
	"math/rand"
	"testing"
)

// textbookLSTM runs a window through the fitted network the way the
// equations are written — per layer z = b + x·Wx + h·Wh over the row-major
// tensors, then the gates — sharing nothing with lstmCell.step but sigmoid.
// Each z[j] sums bias, then x terms in input order, then h terms in hidden
// order: the summation order step must keep.
func textbookLSTM(n *seqNet, window [][]float64) []float64 {
	type hc struct{ h, c []float64 }
	states := make([]hc, len(n.layers))
	for li, l := range n.layers {
		states[li] = hc{make([]float64, l.hiddenSize()), make([]float64, l.hiddenSize())}
	}
	out := make([]float64, len(window))
	for t, raw := range window {
		x := make([]float64, len(raw))
		n.xScaler.fwdInto(x, raw)
		for li, l := range n.layers {
			lc := l.(*lstmCell)
			H := lc.hid
			z := append([]float64(nil), lc.b.W...)
			for i, xv := range x {
				if xv == 0 {
					continue
				}
				for j := range z {
					z[j] += xv * lc.wx.W[i*4*H+j]
				}
			}
			for i, hv := range states[li].h {
				if hv == 0 {
					continue
				}
				for j := range z {
					z[j] += hv * lc.wh.W[i*4*H+j]
				}
			}
			next := hc{make([]float64, H), make([]float64, H)}
			for j := 0; j < H; j++ {
				next.c[j] = sigmoid(z[H+j])*states[li].c[j] + sigmoid(z[j])*math.Tanh(z[2*H+j])
				next.h[j] = sigmoid(z[3*H+j]) * math.Tanh(next.c[j])
			}
			states[li] = next
			x = next.h
		}
		var y float64
		for i, hv := range x {
			y += n.wy.W[i] * hv
		}
		out[t] = n.yScaler.inv(y + n.by.W[0])
	}
	return out
}

// TestLSTMInferPathBitExact pins lstmCell.step — the one step training and
// serving run, on either kernel path — to the textbook step above, bit for
// bit, before and after further training moves the weights. PredictLast
// rides the same check, for the GRU as well: it must equal the final element
// of PredictSeq bit for bit (that it allocates nothing is pinned where it
// matters, by core's TestMonitorPushZeroAlloc).
func TestLSTMInferPathBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim, T, nwin = 7, 12, 24
	makeData := func() ([][][]float64, [][]float64) {
		seqs := make([][][]float64, nwin)
		targets := make([][]float64, nwin)
		for w := range seqs {
			seqs[w] = make([][]float64, T)
			targets[w] = make([]float64, T)
			for s := range seqs[w] {
				row := make([]float64, dim)
				for j := range row {
					row[j] = rng.NormFloat64()
				}
				seqs[w][s] = row
				targets[w][s] = rng.NormFloat64()
			}
		}
		return seqs, targets
	}
	seqs, targets := makeData()
	eachKernelPath(t, func(t *testing.T) {
		l := NewLSTM(8, 2, 3)
		l.Epochs = 2
		if err := l.FitSeq(seqs, targets); err != nil {
			t.Fatal(err)
		}
		g := NewGRU(8, 2, 3)
		g.Epochs = 2
		if err := g.FitSeq(seqs, targets); err != nil {
			t.Fatal(err)
		}

		check := func(stage string) {
			t.Helper()
			for w := 0; w < 4; w++ {
				want := textbookLSTM(l.net, seqs[w])
				got := l.PredictSeq(seqs[w])
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: window %d step %d: step %x != textbook %x",
							stage, w, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
				for _, m := range []*seqModel{&l.seqModel, &g.seqModel} {
					last, seq := m.PredictLast(seqs[w]), m.PredictSeq(seqs[w])
					if math.Float64bits(last) != math.Float64bits(seq[T-1]) {
						t.Fatalf("%s: %s window %d: PredictLast %x != PredictSeq[T-1] %x",
							stage, m.kind, w, math.Float64bits(last), math.Float64bits(seq[T-1]))
					}
				}
			}
		}
		check("after fit")

		// Move the weights and check again.
		if err := l.FineTune(seqs[:8], targets[:8]); err != nil {
			t.Fatal(err)
		}
		if err := g.FineTune(seqs[:8], targets[:8]); err != nil {
			t.Fatal(err)
		}
		check("after fine-tune")
	})
}
