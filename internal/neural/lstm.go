package neural

import (
	"math"
	"math/rand"
	"sync"
)

// lstmCell is one LSTM layer. Gate blocks in the 4H dimension are ordered
// [input, forget, cell, output].
type lstmCell struct {
	in, hid int
	wx      *tensor // in × 4H
	wh      *tensor // H × 4H
	b       *tensor // 1 × 4H

	// inf caches the weights transposed to [4H][in] / [4H][hid] (row =
	// gate*H+unit) for the fused inference step. ver is the network
	// weightsVer the transposes were built at; 0 means never built.
	inf struct {
		mu       sync.Mutex
		ver      int64
		wxT, whT []float64
	}
}

func newLSTMCell(in, hid int, rng *rand.Rand) cell {
	c := &lstmCell{in: in, hid: hid,
		wx: newTensor(in, 4*hid), wh: newTensor(hid, 4*hid), b: newTensor(1, 4*hid)}
	scaleX := 1 / math.Sqrt(float64(in))
	scaleH := 1 / math.Sqrt(float64(hid))
	for i := range c.wx.W {
		c.wx.W[i] = rng.NormFloat64() * scaleX
	}
	for i := range c.wh.W {
		c.wh.W[i] = rng.NormFloat64() * scaleH
	}
	// Forget-gate bias starts at 1 so early training does not forget.
	for j := hid; j < 2*hid; j++ {
		c.b.W[j] = 1
	}
	return c
}

// lstmStep records one timestep's activations for backprop. The gate
// slices are owned by the scratch; x, hPrev, cPrev and c reference buffers
// that stay live for the whole window.
type lstmStep struct {
	x, hPrev, cPrev []float64
	i, f, g, o, tc  []float64
	c               []float64
}

// lstmScratch is the reusable per-executor workspace of one LSTM layer:
// pre-activation and gradient slabs plus per-timestep state and gate
// buffers, grown once to the window length and reused for every window.
type lstmScratch struct {
	in, hid int
	z, dz   []float64    // 4H pre-activations / their gradients
	dx      []float64    // input gradient
	dbuf    [2]cellState // ping-pong backward state gradients
	hs, cs  [][]float64  // states; hs[0]/cs[0] stay all-zero
	steps   []lstmStep
}

func (l *lstmCell) newScratch() cellScratch {
	H := l.hid
	return &lstmScratch{
		in: l.in, hid: H,
		z: make([]float64, 4*H), dz: make([]float64, 4*H),
		dx: make([]float64, l.in),
		dbuf: [2]cellState{
			{h: make([]float64, H), c: make([]float64, H)},
			{h: make([]float64, H), c: make([]float64, H)},
		},
	}
}

func (s *lstmScratch) begin(T int) (cellState, cellState) {
	H := s.hid
	for len(s.hs) < T+1 {
		s.hs = append(s.hs, make([]float64, H))
		s.cs = append(s.cs, make([]float64, H))
	}
	for len(s.steps) < T {
		s.steps = append(s.steps, lstmStep{
			i: make([]float64, H), f: make([]float64, H),
			g: make([]float64, H), o: make([]float64, H),
			tc: make([]float64, H),
		})
	}
	d0 := s.dbuf[T&1]
	clear(d0.h)
	clear(d0.c)
	return cellState{h: s.hs[0], c: s.cs[0]}, d0
}

func (l *lstmCell) inputSize() int     { return l.in }
func (l *lstmCell) hiddenSize() int    { return l.hid }
func (l *lstmCell) tensors() []*tensor { return []*tensor{l.wx, l.wh, l.b} }

func (l *lstmCell) step(scr cellScratch, t int, x []float64, st cellState) cellState {
	s := scr.(*lstmScratch)
	H := l.hid
	z := s.z
	copy(z, l.b.W)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := l.wx.W[i*4*H : (i+1)*4*H]
		for j, wv := range row {
			z[j] += xv * wv
		}
	}
	for i, hv := range st.h {
		if hv == 0 {
			continue
		}
		row := l.wh.W[i*4*H : (i+1)*4*H]
		for j, wv := range row {
			z[j] += hv * wv
		}
	}
	g := &s.steps[t]
	g.x, g.hPrev, g.cPrev = x, st.h, st.c
	c, h := s.cs[t+1], s.hs[t+1]
	g.c = c
	for j := 0; j < H; j++ {
		g.i[j] = sigmoid(z[j])
		g.f[j] = sigmoid(z[H+j])
		g.g[j] = math.Tanh(z[2*H+j])
		g.o[j] = sigmoid(z[3*H+j])
		c[j] = g.f[j]*st.c[j] + g.i[j]*g.g[j]
		g.tc[j] = math.Tanh(c[j])
		h[j] = g.o[j] * g.tc[j]
	}
	return cellState{h: h, c: c}
}

// inferWeights returns the transposed weight copies for version ver,
// rebuilding them when training has moved the weights since the last
// build. The transpose is ~4H·(in+H) copies — trivial next to one window
// of inference — and is amortized across every prediction at that version.
func (l *lstmCell) inferWeights(ver int64) (wxT, whT []float64) {
	l.inf.mu.Lock()
	defer l.inf.mu.Unlock()
	if l.inf.ver != ver {
		H := l.hid
		if l.inf.wxT == nil {
			l.inf.wxT = make([]float64, l.in*4*H)
			l.inf.whT = make([]float64, H*4*H)
		}
		for i := 0; i < l.in; i++ {
			for j := 0; j < 4*H; j++ {
				l.inf.wxT[j*l.in+i] = l.wx.W[i*4*H+j]
			}
		}
		for i := 0; i < H; i++ {
			for j := 0; j < 4*H; j++ {
				l.inf.whT[j*H+i] = l.wh.W[i*4*H+j]
			}
		}
		l.inf.ver = ver
	}
	return l.inf.wxT, l.inf.whT
}

// stepInfer is the prediction-only fast path of step: the four gate
// pre-activations of each hidden unit accumulate in registers over
// transposed weight rows, so the 4H-wide z slab and the per-gate recording
// for backprop disappear. Every accumulator sums the same terms in the
// same order as step (bias, then x contributions in input order, then h
// contributions in hidden order), so the produced states are bit-identical
// — PredictSeq through this path equals PredictSeq through step exactly.
func (l *lstmCell) stepInfer(scr cellScratch, t int, x []float64, st cellState, ver int64) cellState {
	s := scr.(*lstmScratch)
	H := l.hid
	in := l.in
	wxT, whT := l.inferWeights(ver)
	bw := l.b.W
	hPrev := st.h
	c, h := s.cs[t+1], s.hs[t+1]
	for j := 0; j < H; j++ {
		zi, zf, zg, zo := bw[j], bw[H+j], bw[2*H+j], bw[3*H+j]
		// Re-slicing each row to len(x)/len(hPrev) lets the compiler prove
		// i is in range for all four rows and drop the bounds checks (the
		// rows are in/H long; inputs are never longer in a well-formed net,
		// and a malformed one panics here just as step would index past wx).
		rxi := wxT[j*in : (j+1)*in][:len(x)]
		rxf := wxT[(H+j)*in : (H+j+1)*in][:len(x)]
		rxg := wxT[(2*H+j)*in : (2*H+j+1)*in][:len(x)]
		rxo := wxT[(3*H+j)*in : (3*H+j+1)*in][:len(x)]
		for i, xv := range x {
			if xv == 0 {
				continue
			}
			zi += xv * rxi[i]
			zf += xv * rxf[i]
			zg += xv * rxg[i]
			zo += xv * rxo[i]
		}
		rhi := whT[j*H : (j+1)*H][:len(hPrev)]
		rhf := whT[(H+j)*H : (H+j+1)*H][:len(hPrev)]
		rhg := whT[(2*H+j)*H : (2*H+j+1)*H][:len(hPrev)]
		rho := whT[(3*H+j)*H : (3*H+j+1)*H][:len(hPrev)]
		for i, hv := range hPrev {
			if hv == 0 {
				continue
			}
			zi += hv * rhi[i]
			zf += hv * rhf[i]
			zg += hv * rhg[i]
			zo += hv * rho[i]
		}
		cj := sigmoid(zf)*st.c[j] + sigmoid(zi)*math.Tanh(zg)
		c[j] = cj
		h[j] = sigmoid(zo) * math.Tanh(cj)
	}
	return cellState{h: h, c: c}
}

func (l *lstmCell) back(scr cellScratch, t int, dst cellState) ([]float64, cellState) {
	s := scr.(*lstmScratch)
	g := &s.steps[t]
	H := l.hid
	dz := s.dz
	out := s.dbuf[t&1]
	dhPrev, dcPrev := out.h, out.c
	for j := 0; j < H; j++ {
		dh := dst.h[j]
		do := dh * g.tc[j]
		dc := dst.c[j] + dh*g.o[j]*(1-g.tc[j]*g.tc[j])
		di := dc * g.g[j]
		df := dc * g.cPrev[j]
		dg := dc * g.i[j]
		dcPrev[j] = dc * g.f[j]
		dz[j] = di * g.i[j] * (1 - g.i[j])
		dz[H+j] = df * g.f[j] * (1 - g.f[j])
		dz[2*H+j] = dg * (1 - g.g[j]*g.g[j])
		dz[3*H+j] = do * g.o[j] * (1 - g.o[j])
	}
	// Parameter gradients.
	for j, d := range dz {
		l.b.G[j] += d
	}
	dx := s.dx
	for i, xv := range g.x {
		wrow := l.wx.W[i*4*H : (i+1)*4*H]
		grow := l.wx.G[i*4*H : (i+1)*4*H]
		var acc float64
		for j, d := range dz {
			grow[j] += d * xv
			acc += d * wrow[j]
		}
		dx[i] = acc
	}
	for i, hv := range g.hPrev {
		wrow := l.wh.W[i*4*H : (i+1)*4*H]
		grow := l.wh.G[i*4*H : (i+1)*4*H]
		var acc float64
		for j, d := range dz {
			grow[j] += d * hv
			acc += d * wrow[j]
		}
		dhPrev[i] = acc
	}
	return dx, cellState{h: dhPrev, c: dcPrev}
}
