package neural

import (
	"math"
	"math/rand"
)

// lstmCell is one LSTM layer. Gate blocks in the 4H dimension are ordered
// [input, forget, cell, output].
type lstmCell struct {
	in, hid int
	wx      *tensor // in × 4H
	wh      *tensor // H × 4H
	b       *tensor // 1 × 4H
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

// lstmStep records one timestep's activations for backprop. gates is the
// 4H pre-activation slab step works in, which ends up holding the gate
// activations i, f, g, o (views of it); it and tc are owned by the scratch.
// x, hPrev and cPrev reference buffers that stay live for the whole window.
type lstmStep struct {
	x, hPrev, cPrev []float64
	gates           []float64
	i, f, g, o, tc  []float64
}

// lstmScratch is the reusable per-executor workspace of one LSTM layer:
// the gradient slab plus per-timestep state and gate buffers, grown once to
// the window length and reused for every window.
type lstmScratch struct {
	hid    int
	dz     []float64    // 4H pre-activation gradients
	dx     []float64    // input gradient
	dbuf   [2]cellState // ping-pong backward state gradients
	hs, cs [][]float64  // states; hs[0]/cs[0] stay all-zero
	steps  []lstmStep
}

func (l *lstmCell) newScratch() cellScratch {
	H := l.hid
	return &lstmScratch{
		hid: H, dz: make([]float64, 4*H), dx: make([]float64, l.in),
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
		z := make([]float64, 4*H)
		s.steps = append(s.steps, lstmStep{
			gates: z, i: z[:H], f: z[H : 2*H], g: z[2*H : 3*H], o: z[3*H:],
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

// step computes the 4H gate pre-activations in the step's gate slab — bias,
// then x contributions in input order, then h contributions in hidden order,
// over the row-major tensors — activates them in place, and derives c and h.
// It reads the cell and writes only the scratch.
func (l *lstmCell) step(scr cellScratch, t int, x []float64, st cellState) cellState {
	s := scr.(*lstmScratch)
	H := l.hid
	g := &s.steps[t]
	g.x, g.hPrev, g.cPrev = x, st.h, st.c
	z := g.gates
	copy(z, l.b.W)
	gemvRows(z, x, l.wx.W)
	gemvRows(z, st.h, l.wh.W)
	sigmoidInto(z[:2*H], z[:2*H])
	tanhInto(g.g, g.g)
	sigmoidInto(g.o, g.o)
	c, h := s.cs[t+1], s.hs[t+1]
	for j, cp := range st.c {
		c[j] = g.f[j]*cp + g.i[j]*g.g[j]
	}
	tanhInto(g.tc, c)
	for j, tc := range g.tc {
		h[j] = g.o[j] * tc
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
