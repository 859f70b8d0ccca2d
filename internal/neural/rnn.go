package neural

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// cell is one recurrent layer's parameters with step/backprop functions.
// Implementations: lstmCell, gruCell. Cells hold no per-window state: all
// scratch lives in a cellScratch so several executors (the serial trainer,
// parallel workers, pooled predictors) can share one parameter set without
// races.
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
	// tensors exposes the layer's parameters for the optimizer.
	tensors() []*tensor
	// shadow returns a cell sharing this cell's weights with private
	// gradient buffers, for worker-local accumulation.
	shadow() cell
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

func (s cellState) clone() cellState {
	out := cellState{h: append([]float64(nil), s.h...)}
	if s.c != nil {
		out.c = append([]float64(nil), s.c...)
	}
	return out
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
// The cells it references may be the network's primary cells (serial
// training, prediction) or shadows with private gradients (workers).
type seqExec struct {
	layers []cell
	scr    []cellScratch
	wy, by *tensor

	// inferVer, when non-nil, marks this executor as prediction-only and
	// points at the owning network's weights version; layers that provide a
	// fused inference step (lstmCell.stepInfer) run it instead of the
	// recording step. Training executors leave it nil.
	inferVer *atomic.Int64

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
			if e.inferVer != nil {
				if lc, ok := l.(*lstmCell); ok {
					e.states[li] = lc.stepInfer(e.scr[li], t, x, e.states[li], e.inferVer.Load())
					x = e.states[li].h
					continue
				}
			}
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

// backprop accumulates gradients for one window into the executor's
// tensors (the primary tensors for the serial path, shadow gradients for
// workers).
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

// seqWorker is one parallel training worker: shadow cells sharing the
// network weights with private gradient buffers, plus the executor scratch.
type seqWorker struct {
	exec  *seqExec
	grads []*tensor // shadow tensors in the optimizer's reduce order
}

// seqNet is a stack of recurrent layers with a per-step linear readout,
// trained on windows with full backpropagation through time. It backs both
// the LSTM and GRU public types.
type seqNet struct {
	layers []cell
	wy     *tensor // hidden × 1 readout
	by     *tensor
	opt    *adam
	rng    *rand.Rand

	// workers is the effective worker count for training (set by the
	// public model types before each fit).
	workers int
	exec    *seqExec     // serial-path executor, lazily built
	pool    []*seqWorker // parallel workers, lazily built

	// predPool recycles prediction executors so concurrent PredictSeq
	// callers (e.g. per-connection cluster goroutines sharing one model)
	// stay race-free without per-call allocation of the whole workspace.
	predPool sync.Pool

	// weightsVer versions the parameter tensors for the inference fast
	// path: trainWindows bumps it when an optimisation pass finishes, and
	// cells rebuild their transposed inference weights when the version
	// they cached falls behind. It starts at 1 so freshly built (or
	// freshly decoded) weights are always newer than a cell's zero.
	weightsVer atomic.Int64

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
	n.weightsVer.Store(1)
	n.predPool.New = func() any {
		e := newSeqExec(n.layers, n.wy, n.by)
		e.inferVer = &n.weightsVer
		return e
	}
	return n
}

// trainExec returns the serial-path executor, building it on first use.
func (n *seqNet) trainExec() *seqExec {
	if n.exec == nil {
		n.exec = newSeqExec(n.layers, n.wy, n.by)
	}
	return n.exec
}

// workerPool grows the worker set to w and returns the first w workers.
func (n *seqNet) workerPool(w int) []*seqWorker {
	for len(n.pool) < w {
		shadows := make([]cell, len(n.layers))
		var grads []*tensor
		for i, l := range n.layers {
			sl := l.shadow()
			shadows[i] = sl
			grads = append(grads, sl.tensors()...)
		}
		swy, sby := n.wy.shadow(), n.by.shadow()
		grads = append(grads, swy, sby)
		n.pool = append(n.pool, &seqWorker{exec: newSeqExec(shadows, swy, sby), grads: grads})
	}
	return n.pool[:w]
}

// trainWindows runs epochs of BPTT over the given windows. Mini-batches are
// sharded across the configured workers; with one worker the exact serial
// path runs, keeping fixed-seed results bit-identical to single-threaded
// training.
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
	workers := n.workers
	if workers < 1 {
		workers = 1
	}
	order := n.rng.Perm(len(seqs))
	for e := 0; e < epochs; e++ {
		n.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			idxs := order[start:end]
			steps := 0
			for _, i := range idxs {
				steps += len(seqs[i])
			}
			if w := min(workers, len(idxs)); w <= 1 {
				ex := n.trainExec()
				for _, i := range idxs {
					ex.backprop(seqs[i], targets[i], &n.xScaler, n.yScaler)
				}
			} else {
				n.parallelBatch(idxs, seqs, targets, w)
			}
			n.opt.Step(steps, 5)
		}
	}
	n.fitted = true
	n.weightsVer.Add(1)
	return nil
}

// parallelBatch shards one mini-batch across w workers, each accumulating
// into its own shadow gradients, then reduces the shadows into the primary
// tensors in fixed shard order so results are deterministic for a given w.
func (n *seqNet) parallelBatch(idxs []int, seqs [][][]float64, targets [][]float64, w int) {
	pool := n.workerPool(w)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		lo, hi := shardRange(len(idxs), w, k)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(wk *seqWorker, part []int) {
			defer wg.Done()
			for _, i := range part {
				wk.exec.backprop(seqs[i], targets[i], &n.xScaler, n.yScaler)
			}
		}(pool[k], idxs[lo:hi])
	}
	wg.Wait()
	for _, wk := range pool {
		for ti, sh := range wk.grads {
			dst := n.opt.tensors[ti].G
			for i, g := range sh.G {
				dst[i] += g
			}
			clear(sh.G)
		}
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
