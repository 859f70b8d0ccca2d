package neural

import (
	"math"
	"math/rand"
)

// gruCell is one GRU layer. Gate blocks in the 3H dimension are ordered
// [update z, reset r, candidate n]; the candidate follows the PyTorch
// convention n = tanh(Wn·x + bn + r ⊙ (Un·h)).
type gruCell struct {
	in, hid int
	wx      *tensor // in × 3H
	wh      *tensor // H × 3H
	b       *tensor // 1 × 3H
}

func newGRUCell(in, hid int, rng *rand.Rand) cell {
	c := &gruCell{in: in, hid: hid,
		wx: newTensor(in, 3*hid), wh: newTensor(hid, 3*hid), b: newTensor(1, 3*hid)}
	scaleX := 1 / math.Sqrt(float64(in))
	scaleH := 1 / math.Sqrt(float64(hid))
	for i := range c.wx.W {
		c.wx.W[i] = rng.NormFloat64() * scaleX
	}
	for i := range c.wh.W {
		c.wh.W[i] = rng.NormFloat64() * scaleH
	}
	return c
}

// gruStep records one timestep's activations for backprop. a holds its own
// copy of the candidate recurrent term Un·h because the 3H matvec buffer is
// reused every step.
type gruStep struct {
	x, hPrev []float64
	z, r, n  []float64
	a        []float64 // Un·h (candidate recurrent term before reset gating)
}

// gruScratch is the reusable per-executor workspace of one GRU layer.
type gruScratch struct {
	in, hid int
	zx, ah  []float64    // 3H pre-activation slabs, reused each step
	dzPre   []float64    // 3H
	da      []float64    // H
	dx      []float64    // input gradient
	dbuf    [2]cellState // ping-pong backward state gradients
	hs      [][]float64  // states; hs[0] stays all-zero
	steps   []gruStep
}

func (g *gruCell) newScratch() cellScratch {
	H := g.hid
	return &gruScratch{
		in: g.in, hid: H,
		zx: make([]float64, 3*H), ah: make([]float64, 3*H),
		dzPre: make([]float64, 3*H), da: make([]float64, H),
		dx: make([]float64, g.in),
		dbuf: [2]cellState{
			{h: make([]float64, H)},
			{h: make([]float64, H)},
		},
	}
}

func (s *gruScratch) begin(T int) (cellState, cellState) {
	H := s.hid
	for len(s.hs) < T+1 {
		s.hs = append(s.hs, make([]float64, H))
	}
	for len(s.steps) < T {
		s.steps = append(s.steps, gruStep{
			z: make([]float64, H), r: make([]float64, H),
			n: make([]float64, H), a: make([]float64, H),
		})
	}
	d0 := s.dbuf[T&1]
	clear(d0.h)
	return cellState{h: s.hs[0]}, d0
}

func (g *gruCell) inputSize() int     { return g.in }
func (g *gruCell) hiddenSize() int    { return g.hid }
func (g *gruCell) tensors() []*tensor { return []*tensor{g.wx, g.wh, g.b} }

func (g *gruCell) step(scr cellScratch, t int, x []float64, st cellState) cellState {
	s := scr.(*gruScratch)
	H := g.hid
	// zx = Wx·x + b for all three blocks; ah = Uh·h for all three blocks.
	zx := s.zx
	copy(zx, g.b.W)
	gemvRows(zx, x, g.wx.W)
	ah := s.ah
	clear(ah)
	gemvRows(ah, st.h, g.wh.W)
	c := &s.steps[t]
	c.x, c.hPrev = x, st.h
	copy(c.a, ah[2*H:3*H])
	h := s.hs[t+1]
	for j := 0; j < H; j++ {
		c.z[j] = sigmoid(zx[j] + ah[j])
		c.r[j] = sigmoid(zx[H+j] + ah[H+j])
		c.n[j] = math.Tanh(zx[2*H+j] + c.r[j]*c.a[j])
		h[j] = (1-c.z[j])*c.n[j] + c.z[j]*st.h[j]
	}
	return cellState{h: h}
}

func (g *gruCell) back(scr cellScratch, t int, dst cellState) ([]float64, cellState) {
	s := scr.(*gruScratch)
	c := &s.steps[t]
	H := g.hid
	// dzPre has the pre-activation gradients for the three gate blocks; the
	// candidate block's recurrent path is gated by r, handled separately.
	dzPre := s.dzPre
	da := s.da
	dhPrev := s.dbuf[t&1].h
	for j := 0; j < H; j++ {
		dh := dst.h[j]
		dz := dh * (c.hPrev[j] - c.n[j])
		dn := dh * (1 - c.z[j])
		dhPrev[j] = dh * c.z[j]
		dnPre := dn * (1 - c.n[j]*c.n[j])
		dr := dnPre * c.a[j]
		da[j] = dnPre * c.r[j]
		dzPre[j] = dz * c.z[j] * (1 - c.z[j])
		dzPre[H+j] = dr * c.r[j] * (1 - c.r[j])
		dzPre[2*H+j] = dnPre
	}
	// Bias gradients (bias feeds zx for all blocks).
	for j, d := range dzPre {
		g.b.G[j] += d
	}
	// Input weights and dx.
	dx := s.dx
	for i, xv := range c.x {
		wrow := g.wx.W[i*3*H : (i+1)*3*H]
		grow := g.wx.G[i*3*H : (i+1)*3*H]
		var acc float64
		for j, d := range dzPre {
			grow[j] += d * xv
			acc += d * wrow[j]
		}
		dx[i] = acc
	}
	// Recurrent weights: blocks z and r receive dzPre directly; block n
	// receives da (the reset-gated path).
	for i, hv := range c.hPrev {
		wrow := g.wh.W[i*3*H : (i+1)*3*H]
		grow := g.wh.G[i*3*H : (i+1)*3*H]
		var acc float64
		for j := 0; j < 2*H; j++ {
			grow[j] += dzPre[j] * hv
			acc += dzPre[j] * wrow[j]
		}
		for j := 0; j < H; j++ {
			grow[2*H+j] += da[j] * hv
			acc += da[j] * wrow[2*H+j]
		}
		dhPrev[i] += acc
	}
	return dx, cellState{h: dhPrev}
}
