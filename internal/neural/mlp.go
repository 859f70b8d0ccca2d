package neural

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"highrpm/internal/mat"
	"highrpm/internal/model"
)

// MLP is a feed-forward network with ReLU hidden layers and a linear output
// layer, trained with mini-batch Adam on mean squared error. It serves as
// the "NN" baseline of Table 4 (one hidden layer of 30 units) and, with two
// outputs, as HighRPM's SRR model (§4.3: input layer = PMCs + P_Node,
// hidden layer, output layer = P_CPU and P_MEM).
//
// The network standardizes its own inputs and targets during Fit, so raw
// counter values and watt-scale targets can be passed directly.
type MLP struct {
	Hidden    []int   `json:"hidden"`     // hidden layer widths
	Outputs   int     `json:"outputs"`    // number of output units (≥1)
	LR        float64 `json:"lr"`         // Adam learning rate
	Epochs    int     `json:"epochs"`     // training epochs
	BatchSize int     `json:"batch_size"` // mini-batch size
	Seed      int64   `json:"seed"`

	// Fitted state.
	Win     []*tensor // weight matrices, layer l: (in_l × out_l)
	Bin     []*tensor // biases
	XScaler scalerND
	YScaler []scaler1d

	rng  *rand.Rand
	opt  *adam
	exec *mlpExec // training executor

	// predPool recycles prediction scratch so concurrent Predict callers
	// stay race-free without reallocating activations per call.
	predPool sync.Pool
}

// mlpExec owns the forward/backward scratch of one goroutine (the trainer,
// or a pooled predictor): the standardized input, per-layer activations and
// per-layer deltas.
type mlpExec struct {
	win, bin []*tensor
	sx       []float64
	acts     [][]float64 // acts[0] = sx, acts[l+1] = layer l output
	deltas   [][]float64 // deltas[l] = dL/d(layer l output)
}

func newMLPExec(win, bin []*tensor, inputs int) *mlpExec {
	e := &mlpExec{win: win, bin: bin, sx: make([]float64, inputs)}
	e.acts = append(e.acts, e.sx)
	for _, w := range win {
		e.acts = append(e.acts, make([]float64, w.C))
		e.deltas = append(e.deltas, make([]float64, w.C))
	}
	return e
}

// forward runs the network on a raw input, standardizing into the exec's
// scratch; acts[last] is the output in standardized target space.
func (e *mlpExec) forward(xs *scalerND, rawX []float64) [][]float64 {
	xs.fwdInto(e.sx, rawX)
	cur := e.sx
	for l, w := range e.win {
		out := e.acts[l+1]
		copy(out, e.bin[l].W)
		gemvRows(out, cur, w.W)
		if l < len(e.win)-1 { // hidden: ReLU
			for j := range out {
				if out[j] < 0 {
					out[j] = 0
				}
			}
		}
		cur = out
	}
	return e.acts
}

// backprop accumulates gradients for one sample into the exec's tensors.
func (e *mlpExec) backprop(xs *scalerND, ys []scaler1d, rawX, rawY []float64) {
	acts := e.forward(xs, rawX)
	out := acts[len(acts)-1]
	// dL/dout for MSE in standardized target space.
	last := len(e.win) - 1
	delta := e.deltas[last]
	for j := range out {
		delta[j] = out[j] - ys[j].fwd(rawY[j])
	}
	for l := last; l >= 0; l-- {
		w := e.win[l]
		in := acts[l]
		// Bias grads.
		for j, d := range delta {
			e.bin[l].G[j] += d
		}
		// Weight grads and input deltas.
		var prev []float64
		if l > 0 {
			prev = e.deltas[l-1]
		}
		for i, xv := range in {
			row := w.W[i*w.C : (i+1)*w.C]
			grow := w.G[i*w.C : (i+1)*w.C]
			var acc float64
			for j, d := range delta {
				grow[j] += d * xv
				acc += d * row[j]
			}
			if l > 0 {
				prev[i] = acc
			}
		}
		if l > 0 {
			// ReLU derivative on the hidden pre-activation output.
			for i := range prev {
				if in[i] <= 0 {
					prev[i] = 0
				}
			}
			delta = prev
		}
	}
}

// mlpState is the JSON form of a trained MLP.
type mlpState struct {
	Hidden  []int       `json:"hidden"`
	Outputs int         `json:"outputs"`
	LR      float64     `json:"lr"`
	Epochs  int         `json:"epochs"`
	Batch   int         `json:"batch_size"`
	Seed    int64       `json:"seed"`
	Weights [][]float64 `json:"weights"`
	Biases  [][]float64 `json:"biases"`
	Dims    [][2]int    `json:"dims"`
	XScaler scalerND    `json:"x_scaler"`
	YScaler []scaler1d  `json:"y_scaler"`
}

// NewMLP returns an MLP with the given hidden widths and output count.
// Defaults: LR 0.005, 60 epochs, batch 32.
func NewMLP(hidden []int, outputs int, seed int64) *MLP {
	if outputs <= 0 {
		outputs = 1
	}
	return &MLP{
		Hidden:    append([]int(nil), hidden...),
		Outputs:   outputs,
		LR:        0.005,
		Epochs:    60,
		BatchSize: 32,
		Seed:      seed,
	}
}

// NewBaselineNN returns the Table 4 "NN" configuration: one hidden layer of
// 30 units, single output.
func NewBaselineNN(seed int64) *MLP { return NewMLP([]int{30}, 1, seed) }

func (n *MLP) initNet(inputs int) {
	n.rng = rand.New(rand.NewSource(n.Seed))
	widths := append([]int{inputs}, n.Hidden...)
	widths = append(widths, n.Outputs)
	n.Win = nil
	n.Bin = nil
	var tensors []*tensor
	for l := 0; l+1 < len(widths); l++ {
		w := newTensor(widths[l], widths[l+1])
		w.initXavier(n.rng)
		b := newTensor(1, widths[l+1])
		n.Win = append(n.Win, w)
		n.Bin = append(n.Bin, b)
		tensors = append(tensors, w, b)
	}
	n.opt = newAdam(n.LR, tensors...)
	// The layer tensors changed identity: the training executor is rebuilt
	// against the new ones (stale prediction executors age out of predPool
	// via the pointer check in predExec).
	n.exec = newMLPExec(n.Win, n.Bin, inputs)
}

// Fit trains a single-output network (model.Regressor).
func (n *MLP) Fit(x *mat.Dense, y []float64) error {
	ym := mat.NewDense(len(y), 1)
	for i, v := range y {
		ym.Set(i, 0, v)
	}
	return n.FitMulti(x, ym)
}

// FitMulti trains the network on rows of x against rows of y.
func (n *MLP) FitMulti(x, y *mat.Dense) error {
	r, c := x.Dims()
	yr, yc := y.Dims()
	if r != yr {
		return fmt.Errorf("neural: %d rows vs %d target rows", r, yr)
	}
	if yc != n.Outputs {
		return fmt.Errorf("neural: network has %d outputs, targets have %d", n.Outputs, yc)
	}
	if r == 0 {
		return fmt.Errorf("neural: empty training set")
	}
	rows := make([][]float64, r)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	n.XScaler = fitScalerND(rows)
	n.YScaler = make([]scaler1d, yc)
	for j := 0; j < yc; j++ {
		n.YScaler[j] = fitScaler1d(y.Col(j))
	}
	n.initNet(c)
	return n.train(x, y, n.Epochs)
}

// TrainMore runs additional epochs on new data without re-initialising the
// network; the active-learning stage (§4.1) uses this for fine-tuning.
func (n *MLP) TrainMore(x, y *mat.Dense, epochs int) error {
	if n.Win == nil {
		return fmt.Errorf("neural: TrainMore before Fit")
	}
	return n.train(x, y, epochs)
}

func (n *MLP) train(x, y *mat.Dense, epochs int) error {
	r, _ := x.Dims()
	batch := n.BatchSize
	if batch <= 0 {
		batch = 32
	}
	order := n.rng.Perm(r)
	for e := 0; e < epochs; e++ {
		n.rng.Shuffle(r, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < r; start += batch {
			end := start + batch
			if end > r {
				end = r
			}
			for _, i := range order[start:end] {
				n.exec.backprop(&n.XScaler, n.YScaler, x.Row(i), y.Row(i))
			}
			n.opt.Step(end-start, 5)
		}
	}
	return nil
}

// predExec borrows a prediction executor, dropping pooled ones built
// against superseded tensors (initNet replaces Win/Bin wholesale).
func (n *MLP) predExec() *mlpExec {
	if e, ok := n.predPool.Get().(*mlpExec); ok && len(e.win) == len(n.Win) && e.win[0] == n.Win[0] {
		return e
	}
	return newMLPExec(n.Win, n.Bin, n.Win[0].R)
}

// Predict evaluates a single-output network.
func (n *MLP) Predict(features []float64) float64 {
	return n.PredictMulti(features)[0]
}

// PredictMulti evaluates the network, returning de-standardized outputs.
// Safe for concurrent use: each call borrows pooled scratch, so goroutines
// sharing one fitted model never share buffers.
func (n *MLP) PredictMulti(features []float64) []float64 {
	if n.Win == nil {
		panic("neural: MLP is not fitted")
	}
	res := make([]float64, n.Win[len(n.Win)-1].C)
	n.PredictInto(res, features)
	return res
}

// PredictInto is PredictMulti writing the de-standardized outputs into dst
// (one slot per network output) instead of a fresh slice, so a per-sample
// caller that owns its result buffer allocates nothing. Safe for
// concurrent use like PredictMulti.
func (n *MLP) PredictInto(dst, features []float64) {
	if n.Win == nil {
		panic("neural: MLP is not fitted")
	}
	e := n.predExec()
	acts := e.forward(&n.XScaler, features)
	for j, v := range acts[len(acts)-1] {
		dst[j] = n.YScaler[j].inv(v)
	}
	n.predPool.Put(e)
}

// Dims returns the fitted network's input and output widths.
func (n *MLP) Dims() (in, out int) { return n.Win[0].R, n.Win[len(n.Win)-1].C }

// MarshalState serialises the fitted network's hyper-parameters and weights.
func (n *MLP) MarshalState() ([]byte, error) {
	st := mlpState{
		Hidden: n.Hidden, Outputs: n.Outputs, LR: n.LR, Epochs: n.Epochs,
		Batch: n.BatchSize, Seed: n.Seed, XScaler: n.XScaler, YScaler: n.YScaler,
	}
	for l, w := range n.Win {
		st.Weights = append(st.Weights, w.W)
		st.Biases = append(st.Biases, n.Bin[l].W)
		st.Dims = append(st.Dims, [2]int{w.R, w.C})
	}
	return json.Marshal(st)
}

// UnmarshalMLP rebuilds a fitted MLP from its MarshalState output.
func UnmarshalMLP(b []byte) (*MLP, error) {
	var st mlpState
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, err
	}
	// The state arrives from disk or the network: every count and dimension
	// must be spelled out by a slice the frame actually carried before
	// anything is indexed or allocated by it.
	if len(st.Dims) == 0 || len(st.Weights) != len(st.Dims) || len(st.Biases) != len(st.Dims) {
		return nil, fmt.Errorf("neural: mlp state has %d dims, %d weights, %d biases", len(st.Dims), len(st.Weights), len(st.Biases))
	}
	in := st.XScaler.width()
	for l, dims := range st.Dims {
		r, c := dims[0], dims[1]
		if r <= 0 || r != in || c <= 0 || c != len(st.Biases[l]) || r > len(st.Weights[l]) || r*c != len(st.Weights[l]) {
			return nil, fmt.Errorf("neural: mlp layer %d is %d×%d after width %d with %d weights and %d biases",
				l, r, c, in, len(st.Weights[l]), len(st.Biases[l]))
		}
		in = c
	}
	if len(st.YScaler) != in {
		return nil, fmt.Errorf("neural: mlp has %d outputs but %d target scalers", in, len(st.YScaler))
	}
	n := NewMLP(st.Hidden, st.Outputs, st.Seed)
	n.LR, n.Epochs, n.BatchSize = st.LR, st.Epochs, st.Batch
	n.XScaler, n.YScaler = st.XScaler, st.YScaler
	for l, dims := range st.Dims {
		w := newTensor(dims[0], dims[1])
		copy(w.W, st.Weights[l])
		bt := newTensor(1, dims[1])
		copy(bt.W, st.Biases[l])
		n.Win = append(n.Win, w)
		n.Bin = append(n.Bin, bt)
	}
	return n, nil
}

var _ model.Regressor = (*MLP)(nil)
