package neural

import (
	"fmt"
	"math"
	"math/rand"
)

// The forward pass runs three kernels: gemvRows for every weight product
// (LSTM and GRU steps, MLP layers) and sigmoidInto/tanhInto for the LSTM's
// gate blocks. Each has a portable Go body, which is the reference. Where
// the CPU has AVX2 and FMA (kernels_amd64.s), a vector body computes the
// same lanes with the same operations in the same order; init selects it
// only after finding it bit-equal to the portable body on a fixed probe
// set, so the choice changes the speed of a forward pass, never a bit of
// its result.

// vectorKernels selects the vector bodies. init sets it once; tests flip it
// to pin both paths to the same golden hashes.
var vectorKernels = haveVectorKernels() && vectorMatchesPortable()

// gemvRows adds x·w to z, where w is len(x) rows of len(z) weights, row
// major: for each input i in order whose x[i] is not zero, z[j] += x[i]*w[i,j]
// for every j. Each z[j] thus sums its terms in input order, with every
// product rounded before it is added.
func gemvRows(z, x, w []float64) {
	if len(x)*len(z) > len(w) {
		panic(fmt.Sprintf("neural: %d inputs × %d outputs need more weights than the %d given", len(x), len(z), len(w)))
	}
	if vectorKernels {
		gemvRowsVec(z, x, w)
		return
	}
	gemvRowsGo(z, x, w)
}

// sigmoidInto sets dst[i] = sigmoid(src[i]); dst may be src.
func sigmoidInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("neural: sigmoid of %d values into %d", len(src), len(dst)))
	}
	if vectorKernels {
		sigmoidVec(dst, src)
		return
	}
	sigmoidIntoGo(dst, src)
}

// tanhInto sets dst[i] = math.Tanh(src[i]); dst may be src.
func tanhInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("neural: tanh of %d values into %d", len(src), len(dst)))
	}
	if vectorKernels {
		tanhVec(dst, src)
		return
	}
	tanhIntoGo(dst, src)
}

func gemvRowsGo(z, x, w []float64) {
	n := len(z)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := w[i*n : (i+1)*n]
		for j, wv := range row {
			z[j] += xv * wv
		}
	}
}

func sigmoidIntoGo(dst, src []float64) {
	for i, v := range src {
		dst[i] = sigmoid(v)
	}
}

func tanhIntoGo(dst, src []float64) {
	for i, v := range src {
		dst[i] = math.Tanh(v)
	}
}

// vectorMatchesPortable runs both bodies of every kernel on kernelProbes
// and reports whether they agree bit for bit. The probes include inputs on
// which math.Exp's FMA and non-FMA paths differ, so where math.Exp does not
// take its FMA path (an older CPU, or GODEBUG=cpu.fma=off), the vector exp
// disagrees with the portable sigmoid and tanh and is not selected. NaN
// payloads are compared too.
func vectorMatchesPortable() bool {
	vals := kernelProbes()
	for n := 0; n <= 8; n++ { // every masked tail, alone and after a block
		if !activationsAgree(vals[:n]) || !activationsAgree(vals[:4+n]) {
			return false
		}
	}
	if !activationsAgree(vals) {
		return false
	}
	// x holds a zero of each sign among ordinary values, then a NaN, run
	// with and without it; w and z cycle through the probes. Every other
	// weight of the first zero's row is +Inf, which only a skipped row leaves
	// out of z. Every third z and every other weight of the NaN's row are
	// NaNs of two more payloads, so which operand's payload survives a
	// multiply or an add is checked too.
	nanX, nanW, nanZ := math.Float64frombits(0x7ff8000000000bad), math.Float64frombits(0x7ff800000000beef), math.Float64frombits(0x7ff80000000c0de0)
	x := []float64{vals[48], 0, vals[49], math.Copysign(0, -1), vals[50], vals[51], nanX}
	for _, cols := range []int{1, 2, 3, 4, 5, 15, 16, 17, 24, 36, 64} {
		z, w := make([]float64, cols), make([]float64, len(x)*cols)
		for j := range z {
			z[j] = vals[(7*j)%len(vals)]
			if j%3 == 0 {
				z[j] = nanZ
			}
		}
		for k := range w {
			w[k] = vals[(3*k+1)%len(vals)]
		}
		for j := 0; j < cols; j += 2 {
			w[cols+j] = math.Inf(1)
			w[(len(x)-1)*cols+j] = nanW
		}
		for _, rows := range []int{len(x) - 1, len(x)} {
			if !gemvAgrees(append([]float64(nil), z...), x[:rows], w) {
				return false
			}
		}
	}
	return true
}

// activationsAgree reports whether sigmoidVec and tanhVec equal their
// portable bodies bit for bit on src.
func activationsAgree(src []float64) bool {
	got, want := make([]float64, len(src)), make([]float64, len(src))
	sigmoidVec(got, src)
	sigmoidIntoGo(want, src)
	if !sameBits(got, want) {
		return false
	}
	tanhVec(got, src)
	tanhIntoGo(want, src)
	return sameBits(got, want)
}

// gemvAgrees reports whether gemvRowsVec equals gemvRowsGo bit for bit from
// the same z, x and w. It leaves z as the portable body left it.
func gemvAgrees(z, x, w []float64) bool {
	got := append([]float64(nil), z...)
	gemvRowsVec(got, x, w)
	gemvRowsGo(z, x, w)
	return sameBits(got, z)
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// kernelProbes is the self-check's input set: both signs of every branch
// edge of sigmoid, tanh and exp (±0, 0.625, 0.5*MAXLOG, the overflow bound,
// the subnormal and underflow ranges, ±Inf, quiet and signalling NaNs), then
// N(0, 4²) draws, about 9 % of which math.Exp's FMA and non-FMA paths round
// differently, and a wide uniform range. The first 48 are the edges.
func kernelProbes() []float64 {
	edges := []float64{
		0, 1, 0.625, math.Nextafter(0.625, 0), math.Nextafter(0.625, 1),
		44.014845965556525, math.Nextafter(44.014845965556525, 0), math.Nextafter(44.014845965556525, 100),
		354.891356446692, 699, 708.3964185322641, 709.782712893384, math.Nextafter(709.782712893384, 800),
		744.44, 745.1332191019411, 746, 1e-310, 5e-324, math.MaxFloat64, math.Inf(1),
		math.Float64frombits(0x7ff8000000000000), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0x7ff8deadbeef0000), math.Float64frombits(0x7ff4000000000f00),
	}
	vals := make([]float64, 0, 1021)
	for _, v := range edges {
		vals = append(vals, v, -v)
	}
	rng := rand.New(rand.NewSource(1))
	for len(vals) < 48+800 {
		vals = append(vals, rng.NormFloat64()*4)
	}
	for len(vals) < cap(vals) {
		vals = append(vals, rng.Float64()*1520-760)
	}
	return vals
}
