package neural

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"highrpm/internal/mat"
	"highrpm/internal/model"
)

func TestMLPFitsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := mat.NewDense(400, 2)
	y := make([]float64, 400)
	for i := 0; i < 400; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y[i] = 3*a - 2*b + 5
	}
	n := NewMLP([]int{16}, 1, 2)
	if err := n.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var sq float64
	for i := 0; i < 400; i++ {
		d := n.Predict(x.Row(i)) - y[i]
		sq += d * d
	}
	if rmse := math.Sqrt(sq / 400); rmse > 0.3 {
		t.Fatalf("MLP RMSE = %g on linear data", rmse)
	}
}

func TestMLPFitsNonlinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := mat.NewDense(600, 1)
	y := make([]float64, 600)
	for i := 0; i < 600; i++ {
		v := rng.Float64()*4 - 2
		x.Set(i, 0, v)
		y[i] = v * v
	}
	n := NewMLP([]int{30}, 1, 4)
	n.Epochs = 120
	if err := n.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := n.Predict([]float64{1.5}); math.Abs(got-2.25) > 0.4 {
		t.Fatalf("MLP(1.5) = %g want ~2.25", got)
	}
	if got := n.Predict([]float64{0}); math.Abs(got) > 0.4 {
		t.Fatalf("MLP(0) = %g want ~0", got)
	}
}

func TestMLPMultiOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := mat.NewDense(300, 2)
	y := mat.NewDense(300, 2)
	for i := 0; i < 300; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Set(i, 0, a+b)
		y.Set(i, 1, a-b)
	}
	n := NewMLP([]int{16}, 2, 6)
	if err := n.FitMulti(x, y); err != nil {
		t.Fatal(err)
	}
	out := n.PredictMulti([]float64{1, 0.5})
	if math.Abs(out[0]-1.5) > 0.3 || math.Abs(out[1]-0.5) > 0.3 {
		t.Fatalf("PredictMulti = %v want ~[1.5 0.5]", out)
	}
}

func TestMLPOutputDimMismatch(t *testing.T) {
	n := NewMLP([]int{4}, 2, 1)
	if err := n.FitMulti(mat.NewDense(5, 2), mat.NewDense(5, 3)); err == nil {
		t.Fatal("expected output-dim mismatch error")
	}
	if err := n.FitMulti(mat.NewDense(5, 2), mat.NewDense(4, 2)); err == nil {
		t.Fatal("expected row mismatch error")
	}
}

func TestMLPTrainMoreImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := mat.NewDense(300, 1)
	y := make([]float64, 300)
	for i := 0; i < 300; i++ {
		v := rng.Float64()*2 - 1
		x.Set(i, 0, v)
		y[i] = math.Sin(3 * v)
	}
	n := NewMLP([]int{20}, 1, 8)
	n.Epochs = 5 // deliberately undertrained
	if err := n.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	before := rmseOn(n, x, y)
	if err := n.TrainMore(x, yToDense(y), 60); err != nil {
		t.Fatal(err)
	}
	after := rmseOn(n, x, y)
	if after >= before {
		t.Fatalf("TrainMore did not improve: %g -> %g", before, after)
	}
}

func TestMLPTrainMoreBeforeFit(t *testing.T) {
	n := NewMLP([]int{4}, 1, 1)
	if err := n.TrainMore(mat.NewDense(2, 1), mat.NewDense(2, 1), 1); err == nil {
		t.Fatal("expected error")
	}
}

func rmseOn(n *MLP, x *mat.Dense, y []float64) float64 {
	var sq float64
	for i := 0; i < x.Rows(); i++ {
		d := n.Predict(x.Row(i)) - y[i]
		sq += d * d
	}
	return math.Sqrt(sq / float64(x.Rows()))
}

func yToDense(y []float64) *mat.Dense {
	m := mat.NewDense(len(y), 1)
	for i, v := range y {
		m.Set(i, 0, v)
	}
	return m
}

// seqProblem builds windows where the target is a running weighted sum of
// the inputs — solvable only with memory of previous steps.
func seqProblem(n, T int, seed int64) (seqs [][][]float64, targets [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		win := make([][]float64, T)
		lab := make([]float64, T)
		acc := 0.0
		for t := 0; t < T; t++ {
			v := rng.Float64()*2 - 1
			win[t] = []float64{v}
			acc = 0.6*acc + v
			lab[t] = acc
		}
		seqs = append(seqs, win)
		targets = append(targets, lab)
	}
	return seqs, targets
}

func seqRMSE(m model.SeqRegressor, seqs [][][]float64, targets [][]float64) float64 {
	var sq float64
	var n int
	for i, s := range seqs {
		out := m.PredictSeq(s)
		for t := range out {
			d := out[t] - targets[i][t]
			sq += d * d
			n++
		}
	}
	return math.Sqrt(sq / float64(n))
}

func TestLSTMLearnsRunningSum(t *testing.T) {
	seqs, targets := seqProblem(300, 8, 1)
	tseqs, ttargets := seqProblem(50, 8, 2)
	l := NewLSTM(12, 2, 3)
	l.Epochs = 25
	if err := l.FitSeq(seqs, targets); err != nil {
		t.Fatal(err)
	}
	if got := seqRMSE(l, tseqs, ttargets); got > 0.25 {
		t.Fatalf("LSTM RMSE = %g want < 0.25", got)
	}
}

func TestGRULearnsRunningSum(t *testing.T) {
	seqs, targets := seqProblem(300, 8, 4)
	tseqs, ttargets := seqProblem(50, 8, 5)
	g := NewGRU(12, 2, 6)
	g.Epochs = 25
	if err := g.FitSeq(seqs, targets); err != nil {
		t.Fatal(err)
	}
	if got := seqRMSE(g, tseqs, ttargets); got > 0.25 {
		t.Fatalf("GRU RMSE = %g want < 0.25", got)
	}
}

func TestFineTuneImproves(t *testing.T) {
	seqs, targets := seqProblem(200, 8, 7)
	l := NewLSTM(12, 2, 8)
	l.Epochs = 3 // undertrained
	if err := l.FitSeq(seqs, targets); err != nil {
		t.Fatal(err)
	}
	before := seqRMSE(l, seqs, targets)
	l.FineTuneEpochs = 10
	if err := l.FineTune(seqs, targets); err != nil {
		t.Fatal(err)
	}
	after := seqRMSE(l, seqs, targets)
	if after >= before {
		t.Fatalf("FineTune did not improve: %g -> %g", before, after)
	}
}

func TestFineTuneBeforeFit(t *testing.T) {
	if err := NewLSTM(4, 1, 1).FineTune(nil, nil); err == nil {
		t.Fatal("expected error for LSTM")
	}
	if err := NewGRU(4, 1, 1).FineTune(nil, nil); err == nil {
		t.Fatal("expected error for GRU")
	}
}

func TestSeqShapeValidation(t *testing.T) {
	l := NewLSTM(4, 1, 1)
	if err := l.FitSeq(nil, nil); err == nil {
		t.Fatal("expected error for empty windows")
	}
	seqs := [][][]float64{{{1}, {2}}}
	bad := [][]float64{{1}} // label length mismatch
	if err := l.FitSeq(seqs, bad); err == nil {
		t.Fatal("expected label-length error")
	}
}

func TestRNNPersistenceRoundTrips(t *testing.T) {
	seqs, targets := seqProblem(80, 6, 9)
	probe := seqs[0]
	l := NewLSTM(8, 2, 10)
	l.Epochs = 5
	if err := l.FitSeq(seqs, targets); err != nil {
		t.Fatal(err)
	}
	g := NewGRU(8, 2, 11)
	g.Epochs = 5
	if err := g.FitSeq(seqs, targets); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*seqModel{&l.seqModel, &g.seqModel} {
		data, err := m.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		back := newSeqModel(m.kind, m.newCell, 0, 0, 0)
		if err := back.restore(data); err != nil {
			t.Fatal(err)
		}
		want := m.PredictSeq(probe)
		got := back.PredictSeq(probe)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s round trip diverged at step %d: %g vs %g", m.kind, i, got[i], want[i])
			}
		}
	}
	data, err := l.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalLSTM(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.InputDim() != l.InputDim() {
		t.Fatalf("UnmarshalLSTM input dim %d, want %d", back.InputDim(), l.InputDim())
	}

	// A state file missing a layer's tensors is an error, not an index panic.
	var st rnnState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []struct {
		name string
		do   func()
	}{
		{"tensor", func() { st.Tensors[1] = st.Tensors[1][:2] }},
		{"layer", func() { st.Tensors = st.Tensors[:1] }},
	} {
		cut.do()
		bad, _ := json.Marshal(st)
		if _, err := UnmarshalLSTM(bad); err == nil {
			t.Errorf("UnmarshalLSTM accepted a state with a %s missing", cut.name)
		}
	}
}

func TestMLPPersistenceRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := mat.NewDense(100, 2)
	y := make([]float64, 100)
	for i := 0; i < 100; i++ {
		x.Set(i, 0, rng.NormFloat64())
		x.Set(i, 1, rng.NormFloat64())
		y[i] = x.At(i, 0) * 2
	}
	n := NewMLP([]int{8}, 1, 13)
	n.Epochs = 10
	if err := n.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	data, err := n.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalMLP(data)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.4, -0.6}
	if got, want := back.Predict(probe), n.Predict(probe); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("round trip: %g vs %g", got, want)
	}
	if in, out := back.Dims(); in != 2 || out != 1 {
		t.Fatalf("round trip is %d→%d, want 2→1", in, out)
	}
}

func TestDeterministicTraining(t *testing.T) {
	seqs, targets := seqProblem(60, 6, 14)
	a := NewLSTM(8, 2, 15)
	a.Epochs = 4
	b := NewLSTM(8, 2, 15)
	b.Epochs = 4
	if err := a.FitSeq(seqs, targets); err != nil {
		t.Fatal(err)
	}
	if err := b.FitSeq(seqs, targets); err != nil {
		t.Fatal(err)
	}
	pa := a.PredictSeq(seqs[0])
	pb := b.PredictSeq(seqs[0])
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed must give identical training")
		}
	}
}
