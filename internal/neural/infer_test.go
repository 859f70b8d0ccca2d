package neural

import (
	"math"
	"math/rand"
	"testing"
)

// TestLSTMInferPathBitExact pins the fused inference step to the generic
// recording step: PredictSeq (which runs stepInfer via the prediction
// pool) must produce bit-identical outputs to a forward pass through the
// training executor's step path, before and after further training moves
// the weights. PredictLast rides the same check, for the GRU (which has no
// fused step) as well: it must equal the final element of PredictSeq bit
// for bit (that it allocates nothing is pinned where it matters, by core's
// TestMonitorPushZeroAlloc).
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

	// Reference: the generic step path, exactly as training runs it.
	reference := func(window [][]float64) []float64 {
		e := newSeqExec(l.net.layers, l.net.wy, l.net.by) // inferVer nil
		preds := e.forward(window, &l.net.xScaler)
		out := make([]float64, len(preds))
		for i, p := range preds {
			out[i] = l.net.yScaler.inv(p)
		}
		return out
	}
	check := func(stage string) {
		t.Helper()
		for w := 0; w < 4; w++ {
			want := reference(seqs[w])
			got := l.PredictSeq(seqs[w])
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: window %d step %d: infer path %x != step path %x",
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

	// Move the weights and confirm the cached transposes refresh.
	if err := l.FineTune(seqs[:8], targets[:8]); err != nil {
		t.Fatal(err)
	}
	if err := g.FineTune(seqs[:8], targets[:8]); err != nil {
		t.Fatal(err)
	}
	check("after fine-tune")
}
