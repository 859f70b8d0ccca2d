package neural

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"highrpm/internal/model"
)

// cell is one recurrent layer's parameters with step/backprop functions.
// Implementations: lstmCell, gruCell. Cells hold no per-window state: all
// scratch lives in a cellScratch, and step only reads the cell, so several
// executors (the trainer, pooled predictors) share one parameter set without
// locks. A cell is written by training alone — back's gradients, the
// optimizer step, restore — never while anyone predicts from it.
type cell interface {
	// newScratch allocates the per-executor workspace for this layer.
	newScratch() cellScratch
	// step advances timestep t: given input x and the previous state, it
	// writes activations into the scratch and returns the new state (whose
	// buffers are owned by the scratch and valid until the next begin).
	step(sc cellScratch, t int, x []float64, st cellState) cellState
	// back backpropagates timestep t using the activations recorded by
	// step, accumulates parameter gradients into the cell's tensors, and
	// returns gradients for the input and the previous state.
	back(sc cellScratch, t int, dst cellState) (dx []float64, dprev cellState)
	// tensors exposes the layer's parameters {wx, wh, b} for the optimizer
	// and for persistence.
	tensors() []*tensor
	// sync brings whatever the cell derives from its tensors up to date;
	// whoever writes a tensor's W calls it before the next step.
	sync()
	// inputSize and hiddenSize describe the layer shape.
	inputSize() int
	hiddenSize() int
}

// cellScratch is a layer's reusable per-executor workspace. begin grows it
// for a window of T steps and returns the zero initial state plus the zero
// initial backward-state gradient.
type cellScratch interface {
	begin(T int) (state0, dstate0 cellState)
}

// cellState is a recurrent layer state: h for GRU, (h, c) for LSTM (c nil
// for GRU).
type cellState struct {
	h []float64
	c []float64
}

// growRows ensures dst has at least n rows of width w, reusing existing
// buffers.
func growRows(dst [][]float64, n, w int) [][]float64 {
	for len(dst) < n {
		dst = append(dst, make([]float64, w))
	}
	return dst
}

// seqExec runs forward/backward passes for one goroutine. It owns every
// intermediate buffer (scaled inputs, per-layer activations, state-gradient
// ping-pong buffers), so a whole training epoch allocates nothing per step.
type seqExec struct {
	layers []cell
	scr    []cellScratch
	wy, by *tensor

	xrows   [][]float64 // standardized input per timestep
	topH    [][]float64 // top-layer output per timestep
	preds   []float64
	states  []cellState
	dstates []cellState
}

func newSeqExec(layers []cell, wy, by *tensor) *seqExec {
	e := &seqExec{
		layers:  layers,
		wy:      wy,
		by:      by,
		states:  make([]cellState, len(layers)),
		dstates: make([]cellState, len(layers)),
	}
	for _, l := range layers {
		e.scr = append(e.scr, l.newScratch())
	}
	return e
}

// forward runs a window through all layers, returning per-step standardized
// predictions. The returned slice and the recorded activations are valid
// until the next forward on this executor.
func (e *seqExec) forward(window [][]float64, xs *scalerND) []float64 {
	T := len(window)
	if T == 0 {
		return e.preds[:0]
	}
	e.xrows = growRows(e.xrows, T, len(window[0]))
	for len(e.topH) < T {
		e.topH = append(e.topH, nil)
	}
	for len(e.preds) < T {
		e.preds = append(e.preds, 0)
	}
	for li := range e.layers {
		e.states[li], e.dstates[li] = e.scr[li].begin(T)
	}
	preds := e.preds[:T]
	for t, raw := range window {
		if cap(e.xrows[t]) < len(raw) {
			e.xrows[t] = make([]float64, len(raw))
		}
		x := e.xrows[t][:len(raw)]
		xs.fwdInto(x, raw)
		for li, l := range e.layers {
			e.states[li] = l.step(e.scr[li], t, x, e.states[li])
			x = e.states[li].h
		}
		e.topH[t] = x
		var y float64
		for i, hv := range x {
			y += e.wy.W[i] * hv
		}
		y += e.by.W[0]
		preds[t] = y
	}
	return preds
}

// backprop accumulates gradients for one window into the network's tensors.
func (e *seqExec) backprop(window [][]float64, target []float64, xs *scalerND, ys scaler1d) {
	preds := e.forward(window, xs)
	top := len(e.layers) - 1
	for t := len(window) - 1; t >= 0; t-- {
		dy := preds[t] - ys.fwd(target[t])
		// Readout gradients.
		h := e.topH[t]
		for i, hv := range h {
			e.wy.G[i] += dy * hv
		}
		e.by.G[0] += dy
		// Gradient into the top layer's hidden output at step t: readout
		// contribution plus the recurrent gradient from step t+1.
		for i := range e.dstates[top].h {
			e.dstates[top].h[i] += dy * e.wy.W[i]
		}
		// Backprop through the layer stack.
		var dxBelow []float64
		for li := top; li >= 0; li-- {
			if li < top {
				for i := range e.dstates[li].h {
					e.dstates[li].h[i] += dxBelow[i]
				}
			}
			var dprev cellState
			dxBelow, dprev = e.layers[li].back(e.scr[li], t, e.dstates[li])
			e.dstates[li] = dprev
		}
	}
}

// seqNet is a stack of recurrent layers with a per-step linear readout,
// trained on windows with full backpropagation through time.
type seqNet struct {
	layers []cell
	wy     *tensor // hidden × 1 readout
	by     *tensor
	opt    *adam
	rng    *rand.Rand

	exec *seqExec // training executor, lazily built

	// predPool recycles prediction executors so concurrent PredictSeq
	// callers (e.g. per-connection cluster goroutines sharing one model)
	// stay race-free without per-call allocation of the whole workspace.
	predPool sync.Pool

	xScaler scalerND
	yScaler scaler1d
	fitted  bool
}

func newSeqNet(layers []cell, lr float64, seed int64) *seqNet {
	n := &seqNet{layers: layers, rng: rand.New(rand.NewSource(seed))}
	h := layers[len(layers)-1].hiddenSize()
	n.wy = newTensor(h, 1)
	n.wy.initXavier(n.rng)
	n.by = newTensor(1, 1)
	var tensors []*tensor
	for _, l := range layers {
		tensors = append(tensors, l.tensors()...)
	}
	tensors = append(tensors, n.wy, n.by)
	n.opt = newAdam(lr, tensors...)
	n.predPool.New = func() any { return newSeqExec(n.layers, n.wy, n.by) }
	return n
}

// trainWindows runs epochs of BPTT over the given windows on one executor,
// in shuffle order: the result depends on the seed and the data alone.
func (n *seqNet) trainWindows(seqs [][][]float64, targets [][]float64, epochs, batch int) error {
	if len(seqs) != len(targets) {
		return fmt.Errorf("neural: %d windows vs %d target rows", len(seqs), len(targets))
	}
	if len(seqs) == 0 {
		return fmt.Errorf("neural: no training windows")
	}
	for i, s := range seqs {
		if len(s) != len(targets[i]) {
			return fmt.Errorf("neural: window %d has %d steps but %d targets", i, len(s), len(targets[i]))
		}
	}
	if batch <= 0 {
		batch = 16
	}
	if n.exec == nil {
		n.exec = newSeqExec(n.layers, n.wy, n.by)
	}
	order := n.rng.Perm(len(seqs))
	for e := 0; e < epochs; e++ {
		n.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			steps := 0
			for _, i := range order[start:end] {
				steps += len(seqs[i])
				n.exec.backprop(seqs[i], targets[i], &n.xScaler, n.yScaler)
			}
			n.opt.Step(steps, 5)
			n.sync()
		}
	}
	n.fitted = true
	return nil
}

// sync re-derives every layer's step-side weight copies from its tensors.
func (n *seqNet) sync() {
	for _, l := range n.layers {
		l.sync()
	}
}

// predictWindow evaluates the network on a window, de-standardizing
// outputs. Safe for concurrent use: each call borrows an executor from the
// pool, so no scratch is shared between goroutines.
func (n *seqNet) predictWindow(window [][]float64) []float64 {
	if !n.fitted {
		panic("neural: sequence model is not fitted")
	}
	e := n.predPool.Get().(*seqExec)
	preds := e.forward(window, &n.xScaler)
	out := make([]float64, len(preds))
	for i, p := range preds {
		out[i] = n.yScaler.inv(p)
	}
	n.predPool.Put(e)
	return out
}

// predictLast is predictWindow for callers that want the final step only:
// the same pooled executor and forward pass, but nothing is allocated for
// the steps nobody reads. The window must hold at least one step.
func (n *seqNet) predictLast(window [][]float64) float64 {
	if !n.fitted {
		panic("neural: sequence model is not fitted")
	}
	e := n.predPool.Get().(*seqExec)
	preds := e.forward(window, &n.xScaler)
	last := n.yScaler.inv(preds[len(preds)-1])
	n.predPool.Put(e)
	return last
}

// fitScalers computes the input/target scalers from the training windows.
func (n *seqNet) fitScalers(seqs [][][]float64, targets [][]float64) {
	var rows [][]float64
	var ys []float64
	for i, s := range seqs {
		rows = append(rows, s...)
		ys = append(ys, targets[i]...)
	}
	n.xScaler = fitScalerND(rows)
	n.yScaler = fitScaler1d(ys)
}

// seqModel is the recurrent model behind both public kinds: hyper-parameters,
// a seqNet built from newCell layers, and persistence. LSTM and GRU embed it
// and differ only in the cell they stack and the kind they persist under.
type seqModel struct {
	Hidden    int     `json:"hidden"`
	Layers    int     `json:"layers"`
	LR        float64 `json:"lr"`
	Epochs    int     `json:"epochs"`
	BatchSize int     `json:"batch_size"`
	// FineTuneEpochs controls how many passes FineTune runs (default 2).
	FineTuneEpochs int   `json:"fine_tune_epochs"`
	Seed           int64 `json:"seed"`

	kind     string
	newCell  func(in, hid int, rng *rand.Rand) cell
	inputDim int
	net      *seqNet
}

// newSeqModel applies the shared defaults: the paper's two layers, and 16
// hidden units (kept compact per §6.4.3's finding that small networks work
// best) when the arguments are non-positive.
func newSeqModel(kind string, newCell func(in, hid int, rng *rand.Rand) cell, hidden, layers int, seed int64) seqModel {
	if hidden <= 0 {
		hidden = 16
	}
	if layers <= 0 {
		layers = 2
	}
	return seqModel{Hidden: hidden, Layers: layers, LR: 0.01, Epochs: 30, BatchSize: 16, FineTuneEpochs: 2, Seed: seed,
		kind: kind, newCell: newCell}
}

// LSTM is the recurrent sequence model used by DynamicTRR (§4.2.2: "a
// compact LSTM model with an input layer, two hidden layers, and a fully
// connected layer"; core.DefaultDynamicTRROptions ships one) and as the
// Table 4 LSTM baseline, which keeps two.
type LSTM struct{ seqModel }

// NewLSTM returns an LSTM; non-positive hidden and layers default to 16 and 2.
func NewLSTM(hidden, layers int, seed int64) *LSTM {
	return &LSTM{newSeqModel("neural.lstm", newLSTMCell, hidden, layers, seed)}
}

// GRU is the gated-recurrent-unit baseline of Table 4, structured like the
// paper's DynamicTRR network (two recurrent layers + linear readout).
type GRU struct{ seqModel }

// NewGRU returns a GRU; non-positive hidden and layers default to 16 and 2.
func NewGRU(hidden, layers int, seed int64) *GRU {
	return &GRU{newSeqModel("neural.gru", newGRUCell, hidden, layers, seed)}
}

func (m *seqModel) build(inputDim int) {
	m.inputDim = inputDim
	rng := newDetRand(m.Seed)
	var cells []cell
	in := inputDim
	for k := 0; k < m.Layers; k++ {
		cells = append(cells, m.newCell(in, m.Hidden, rng))
		in = m.Hidden
	}
	m.net = newSeqNet(cells, m.LR, m.Seed+1)
}

// FitSeq trains the network on windows with per-step targets.
func (m *seqModel) FitSeq(seqs [][][]float64, targets [][]float64) error {
	if len(seqs) == 0 {
		return fmt.Errorf("neural: no training windows")
	}
	m.build(len(seqs[0][0]))
	m.net.fitScalers(seqs, targets)
	return m.net.trainWindows(seqs, targets, m.Epochs, m.BatchSize)
}

// FineTune runs a few additional epochs without re-initialising (§4.2.2:
// per-window refinement when a measured reading arrives; §6.4.5 reports this
// costs < 2 s).
func (m *seqModel) FineTune(seqs [][][]float64, targets [][]float64) error {
	if m.net == nil || !m.net.fitted {
		return fmt.Errorf("neural: FineTune before FitSeq")
	}
	epochs := m.FineTuneEpochs
	if epochs <= 0 {
		epochs = 2
	}
	return m.net.trainWindows(seqs, targets, epochs, m.BatchSize)
}

// PredictSeq returns one prediction per window step.
func (m *seqModel) PredictSeq(window [][]float64) []float64 {
	if m.net == nil {
		panic(m.kind + " is not fitted")
	}
	return m.net.predictWindow(window)
}

// PredictLast returns the prediction for the window's final step —
// bit-identical to PredictSeq(window)[len(window)-1] — without allocating
// the per-step result slice. It is what a streaming caller wants: every
// step but the newest was already answered by an earlier window.
func (m *seqModel) PredictLast(window [][]float64) float64 {
	if m.net == nil {
		panic(m.kind + " is not fitted")
	}
	return m.net.predictLast(window)
}

// rnnState is the JSON schema both recurrent kinds persist under.
type rnnState struct {
	Hidden   int           `json:"hidden"`
	Layers   int           `json:"layers"`
	LR       float64       `json:"lr"`
	Epochs   int           `json:"epochs"`
	Batch    int           `json:"batch_size"`
	Seed     int64         `json:"seed"`
	InputDim int           `json:"input_dim"`
	Tensors  [][][]float64 `json:"tensors"` // per layer: wx, wh, b
	Wy       []float64     `json:"wy"`
	By       float64       `json:"by"`
	XScaler  scalerND      `json:"x_scaler"`
	YScaler  scaler1d      `json:"y_scaler"`
}

// Kind implements model.Persistable.
func (m *seqModel) Kind() string { return m.kind }

// MarshalState implements model.Persistable.
func (m *seqModel) MarshalState() ([]byte, error) {
	if m.net == nil {
		return nil, fmt.Errorf("neural: marshal of unfitted %s", m.kind)
	}
	st := rnnState{
		Hidden: m.Hidden, Layers: m.Layers, LR: m.LR, Epochs: m.Epochs,
		Batch: m.BatchSize, Seed: m.Seed, InputDim: m.inputDim,
		Wy: m.net.wy.W, By: m.net.by.W[0],
		XScaler: m.net.xScaler, YScaler: m.net.yScaler,
	}
	for _, c := range m.net.layers {
		var ws [][]float64
		for _, t := range c.tensors() {
			ws = append(ws, t.W)
		}
		st.Tensors = append(st.Tensors, ws)
	}
	return json.Marshal(st)
}

// restore rebuilds a fitted model of m's kind from MarshalState's output.
func (m *seqModel) restore(b []byte) error {
	var st rnnState
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	// The state arrives from disk or the network. Before build allocates by
	// its shape, every dimension must be positive and spelled out by a slice
	// the frame actually carried, and each layer's tensors must agree with
	// one another; after build they must be exactly this kind's.
	H, in := st.Hidden, st.InputDim
	if H <= 0 || in <= 0 || st.Layers <= 0 || len(st.Tensors) != st.Layers ||
		len(st.Wy) != H || st.XScaler.width() != in {
		return fmt.Errorf("neural: %s state is hidden=%d layers=%d input_dim=%d with %d layers of tensors, %d readout weights, input scaler width %d",
			m.kind, H, st.Layers, in, len(st.Tensors), len(st.Wy), st.XScaler.width())
	}
	for k, ts := range st.Tensors {
		if len(ts) != 3 || len(ts[2]) < H || len(ts[0]) != in*len(ts[2]) || len(ts[1]) != H*len(ts[2]) {
			return fmt.Errorf("neural: %s layer %d tensors do not form a %d→%d layer", m.kind, k, in, H)
		}
		in = H
	}
	*m = newSeqModel(m.kind, m.newCell, st.Hidden, st.Layers, st.Seed)
	m.LR, m.Epochs, m.BatchSize = st.LR, st.Epochs, st.Batch
	m.build(st.InputDim)
	for k, c := range m.net.layers {
		for i, t := range c.tensors() {
			if len(st.Tensors[k][i]) != len(t.W) {
				return fmt.Errorf("neural: %s layer %d tensor %d has %d weights, want %d", m.kind, k, i, len(st.Tensors[k][i]), len(t.W))
			}
			copy(t.W, st.Tensors[k][i])
		}
	}
	copy(m.net.wy.W, st.Wy)
	m.net.by.W[0] = st.By
	m.net.sync()
	m.net.xScaler, m.net.yScaler = st.XScaler, st.YScaler
	m.net.fitted = true
	return nil
}

func init() {
	model.RegisterKind("neural.lstm", func(b []byte) (any, error) {
		l := NewLSTM(0, 0, 0)
		return l, l.restore(b)
	})
	model.RegisterKind("neural.gru", func(b []byte) (any, error) {
		g := NewGRU(0, 0, 0)
		return g, g.restore(b)
	})
}

var (
	_ model.SeqRegressor = (*LSTM)(nil)
	_ model.FineTuner    = (*LSTM)(nil)
	_ model.SeqRegressor = (*GRU)(nil)
	_ model.FineTuner    = (*GRU)(nil)
)
