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

	// wxT/whT are wx/wh transposed to [4H][in] / [4H][hid] (row =
	// gate*H+unit), the layout step reads. The tensors stay the parameters
	// (optimizer, persistence, back); whoever writes them calls sync.
	wxT, whT []float64
}

func newLSTMCell(in, hid int, rng *rand.Rand) cell {
	c := &lstmCell{in: in, hid: hid,
		wx: newTensor(in, 4*hid), wh: newTensor(hid, 4*hid), b: newTensor(1, 4*hid),
		wxT: make([]float64, in*4*hid), whT: make([]float64, hid*4*hid)}
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
	c.sync()
	return c
}

// lstmStep records one timestep's activations for backprop. The gate
// slices are owned by the scratch; x, hPrev and cPrev reference buffers
// that stay live for the whole window.
type lstmStep struct {
	x, hPrev, cPrev []float64
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

// sync refreshes wxT/whT from wx/wh. Destination rows are written
// contiguously; the strided side is the read.
func (l *lstmCell) sync() {
	transposeInto(l.wxT, l.wx.W, l.in, 4*l.hid)
	transposeInto(l.whT, l.wh.W, l.hid, 4*l.hid)
}

// transposeInto writes the rows×cols row-major src into dst as cols×rows.
func transposeInto(dst, src []float64, rows, cols int) {
	for j := 0; j < cols; j++ {
		row := dst[j*rows : (j+1)*rows]
		for i := range row {
			row[i] = src[i*cols+j]
		}
	}
}

// step accumulates the four gate pre-activations of each hidden unit in
// registers over the transposed weight rows — bias, then x contributions in
// input order, then h contributions in hidden order — and records the gate
// activations back needs. It reads the cell and writes only the scratch.
func (l *lstmCell) step(scr cellScratch, t int, x []float64, st cellState) cellState {
	s := scr.(*lstmScratch)
	H := l.hid
	in := l.in
	wxT, whT := l.wxT, l.whT
	bw := l.b.W
	hPrev := st.h
	g := &s.steps[t]
	g.x, g.hPrev, g.cPrev = x, hPrev, st.c
	c, h := s.cs[t+1], s.hs[t+1]
	for j := 0; j < H; j++ {
		zi, zf, zg, zo := bw[j], bw[H+j], bw[2*H+j], bw[3*H+j]
		// Re-slicing each row to len(x)/len(hPrev) lets the compiler prove
		// i is in range for all four rows and drop the bounds checks (the
		// rows are in/H long; inputs are never longer in a well-formed net,
		// and a malformed one panics here).
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
		iv, fv, gv, ov := sigmoid(zi), sigmoid(zf), math.Tanh(zg), sigmoid(zo)
		cj := fv*st.c[j] + iv*gv
		tc := math.Tanh(cj)
		g.i[j], g.f[j], g.g[j], g.o[j], g.tc[j] = iv, fv, gv, ov, tc
		c[j] = cj
		h[j] = ov * tc
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
