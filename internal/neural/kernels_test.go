package neural

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// eachKernelPath runs f once on the portable kernels and, where init
// selected them, once more on the vector kernels, then restores init's
// choice. Tests that pin a golden value run through it, so both paths are
// held to the same hash.
func eachKernelPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	selected := vectorKernels
	defer func() { vectorKernels = selected }()
	vectorKernels = false
	t.Run("portable", f)
	if !selected {
		t.Log("vector kernels not selected here: portable path only")
		return
	}
	vectorKernels = true
	t.Run("vector", f)
}

// goldenReplayHash pins PredictLast over a sliding window on the served
// LSTM shape (Hidden 16, one layer: 64-wide gate rows) and on a GRU
// (3H = 24: one 16-lane block and two 4-lane blocks), and the MLP's
// PredictInto (widths 30 and 2, both ending in a masked tail), as the
// scalar code before the vector kernels computed them.
const goldenReplayHash = "816362ceea899b78027f23516e781789ded5ebbdb958cf14965c4e090a9f7d6b"

func TestPredictLastReplayMatchesGolden(t *testing.T) {
	seqs, targets := goldenData(42, 24, 10, 10)
	l := NewLSTM(16, 1, 7)
	l.Epochs = 2
	if err := l.FitSeq(seqs, targets); err != nil {
		t.Fatal(err)
	}
	g := NewGRU(8, 1, 7)
	g.Epochs = 2
	if err := g.FitSeq(seqs, targets); err != nil {
		t.Fatal(err)
	}
	m := NewMLP([]int{30}, 2, 5)
	m.Epochs = 2
	x, y := mlpData()
	if err := m.FitMulti(x, y); err != nil {
		t.Fatal(err)
	}
	stream, _ := goldenData(43, 1, 200, 10)
	rows, _ := goldenData(44, 1, 200, 7)
	eachKernelPath(t, func(t *testing.T) {
		h := sha256.New()
		var buf [8]byte
		put := func(v float64) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		out := make([]float64, 2)
		for end := 10; end <= len(stream[0]); end++ {
			window := stream[0][end-10 : end]
			put(l.PredictLast(window))
			put(g.PredictLast(window))
			m.PredictInto(out, rows[0][end-10])
			put(out[0])
			put(out[1])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenReplayHash {
			t.Errorf("replay hash = %s, want golden %s", got, goldenReplayHash)
		}
	})
}

// TestWideRowPanics feeds rows wider than the model's input_dim. PredictLast
// must panic on both paths, and so must a cell step and the kernel itself
// when the row gets past the scaler: gemvRows checks the shape before any
// body runs, so neither reads past the weights nor writes z.
func TestWideRowPanics(t *testing.T) {
	l := fitLSTM(t) // input_dim 6
	wide, _ := goldenData(1, 1, 10, 7)
	mustPanic := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	eachKernelPath(t, func(t *testing.T) {
		mustPanic(t, "PredictLast", func() { l.PredictLast(wide[0]) })
		c := l.net.layers[0].(*lstmCell)
		sc := c.newScratch()
		st, _ := sc.begin(1)
		x := make([]float64, c.in+1)
		for i := range x {
			x[i] = 1
		}
		mustPanic(t, "lstmCell.step", func() { c.step(sc, 0, x, st) })

		w := make([]float64, 3*5, 4*5) // the capacity past len holds a fourth row
		z := []float64{1, 2, 3, 4, 5}
		mustPanic(t, "gemvRows", func() { gemvRows(z, []float64{1, 1, 1, 1}, w) })
		if z[0] != 1 || z[4] != 5 {
			t.Errorf("gemvRows wrote z before panicking: %v", z)
		}
	})
}

// TestVectorKernelsSelected fails when a CPU with AVX2 and FMA runs the
// portable path: the init self-check found the bodies disagreeing, and the
// vector kernels are no faster than they are correct.
func TestVectorKernelsSelected(t *testing.T) {
	if !haveVectorKernels() {
		t.Skip("no AVX2+FMA: the portable path is the only one")
	}
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("GODEBUG turns CPU features off: math.Exp may be off its FMA path")
	}
	if !vectorKernels {
		t.Fatal("init rejected the vector kernels on a CPU that runs them: they disagree with the portable bodies on the probe set")
	}
}

// TestFMAOffSelectsPortable re-runs itself under GODEBUG=cpu.fma=off, where
// math.Exp takes its non-FMA path. There the vector exp (the FMA path's
// arithmetic) must disagree with the portable activations on the probe set,
// and init must have selected the portable path.
func TestFMAOffSelectsPortable(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		if !haveVectorKernels() {
			t.Skip("no AVX2+FMA")
		}
		if activationsAgree(kernelProbes()) {
			t.Fatal("the probe set does not tell math.Exp's FMA and non-FMA paths apart")
		}
		if vectorKernels {
			t.Fatal("init selected the vector kernels although math.Exp is off its FMA path")
		}
		return
	}
	if !haveVectorKernels() {
		t.Skip("no AVX2+FMA: the portable path is the only one")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFMAOffSelectsPortable$", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestFMAOffSelectsPortable") {
		t.Fatalf("under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

// FuzzKernels compares the vector and portable bodies bit for bit on
// arbitrary float64 bit patterns, eight little-endian bytes each, cycled to
// fill: sigmoid and tanh at every length from 0 to 67 (every 4-lane tail
// after 0-16 blocks), checking nothing is written past the end, and
// gemvRows over one to five rows at every width from 0 to 67. The seed
// corpus (testdata/fuzz/FuzzKernels) holds the branch edges of tanh and
// exp, NaN and infinity payloads, subnormals and zero-skip rows.
func FuzzKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if !vectorKernels {
			t.Skip("vector kernels not selected here")
		}
		n := len(data) / 8
		if n == 0 {
			return
		}
		const maxLen = 67
		vals := make([]float64, 5*maxLen+5)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(i%n):]))
		}
		const sentinel = 0x5e5e5e5e5e5e5e5e
		for k := 0; k <= maxLen; k++ {
			src := vals[:k]
			for _, p := range []struct {
				name     string
				vec, ref func(dst, src []float64)
			}{{"sigmoid", sigmoidVec, sigmoidIntoGo}, {"tanh", tanhVec, tanhIntoGo}} {
				got, want := make([]float64, k+4), make([]float64, k)
				for i := range got {
					got[i] = math.Float64frombits(sentinel)
				}
				p.vec(got[:k], src)
				p.ref(want, src)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s(%#x) at length %d: vector %#x, portable %#x", p.name,
							math.Float64bits(src[i]), k, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
				for i := k; i < len(got); i++ {
					if math.Float64bits(got[i]) != sentinel {
						t.Fatalf("%s at length %d wrote past the end", p.name, k)
					}
				}
			}
			rows := 1 + k%5
			z := append([]float64(nil), vals[rows:rows+k]...)
			if !gemvAgrees(z, vals[:rows], vals[5:5+rows*k]) {
				t.Fatalf("gemvRows %d×%d: vector and portable disagree", rows, k)
			}
		}
	})
}
