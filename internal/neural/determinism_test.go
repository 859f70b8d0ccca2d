package neural

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"

	"highrpm/internal/mat"
)

// Golden hashes of fixed-seed trained models, captured from the original
// allocate-per-step implementation. Training must keep reproducing them
// byte-for-byte on any machine: the result is a function of seed and data,
// whatever buffer reuse the executors do.
const (
	goldenLSTMHash = "8ede5d794035210fe2e4903404aad6ad543a6cb46ad1d7ec39c9cab13eadcf96"
	goldenGRUHash  = "d9e3cd4433cacffcc066cc3eef723c7e190ec1a97b2115b740e615728ae34e6b"
	goldenMLPHash  = "7905cdf505689f59c4bb7fe0a73943f52e82560aac55447540f1f4a9fd50bf87"
)

func goldenData(seed int64, wins, T, feat int) ([][][]float64, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	seqs := make([][][]float64, wins)
	targets := make([][]float64, wins)
	for w := range seqs {
		seqs[w] = make([][]float64, T)
		targets[w] = make([]float64, T)
		for t := 0; t < T; t++ {
			row := make([]float64, feat)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			seqs[w][t] = row
			targets[w][t] = rng.NormFloat64()*5 + 40
		}
	}
	return seqs, targets
}

func stateHash(t *testing.T, m interface{ MarshalState() ([]byte, error) }) string {
	t.Helper()
	b, err := m.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func fitLSTM(t *testing.T) *LSTM {
	t.Helper()
	seqs, targets := goldenData(42, 24, 12, 6)
	l := NewLSTM(8, 2, 7)
	l.Epochs = 4
	if err := l.FitSeq(seqs, targets); err != nil {
		t.Fatal(err)
	}
	if err := l.FineTune(seqs[:4], targets[:4]); err != nil {
		t.Fatal(err)
	}
	return l
}

func fitGRU(t *testing.T) *GRU {
	t.Helper()
	seqs, targets := goldenData(42, 24, 12, 6)
	g := NewGRU(8, 2, 7)
	g.Epochs = 4
	if err := g.FitSeq(seqs, targets); err != nil {
		t.Fatal(err)
	}
	if err := g.FineTune(seqs[:4], targets[:4]); err != nil {
		t.Fatal(err)
	}
	return g
}

func mlpData() (*mat.Dense, *mat.Dense) {
	rng := rand.New(rand.NewSource(9))
	n, c := 120, 7
	x := mat.NewDense(n, c)
	y := mat.NewDense(n, 2)
	for i := 0; i < n; i++ {
		for j := 0; j < c; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		y.Set(i, 0, rng.NormFloat64()*3+20)
		y.Set(i, 1, rng.NormFloat64()*2+10)
	}
	return x, y
}

func fitMLP(t *testing.T) *MLP {
	t.Helper()
	x, y := mlpData()
	m := NewMLP([]int{16}, 2, 5)
	m.Epochs = 6
	if err := m.FitMulti(x, y); err != nil {
		t.Fatal(err)
	}
	if err := m.TrainMore(x, y, 2); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSerialTrainingMatchesGolden(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		if h := stateHash(t, fitLSTM(t)); h != goldenLSTMHash {
			t.Errorf("LSTM hash = %s, want golden %s", h, goldenLSTMHash)
		}
		if h := stateHash(t, fitGRU(t)); h != goldenGRUHash {
			t.Errorf("GRU hash = %s, want golden %s", h, goldenGRUHash)
		}
		if h := stateHash(t, fitMLP(t)); h != goldenMLPHash {
			t.Errorf("MLP hash = %s, want golden %s", h, goldenMLPHash)
		}
	})
}

// TestConcurrentPrediction exercises the pooled prediction executors the way
// the cluster service does: many goroutines sharing one fitted model. Run
// under -race this is the regression test for scratch sharing.
func TestConcurrentPrediction(t *testing.T) {
	l := fitLSTM(t)
	m := fitMLP(t)
	seqs, _ := goldenData(42, 24, 12, 6)
	x, _ := mlpData()
	wantSeq := l.PredictSeq(seqs[1])
	wantOut := m.PredictMulti(x.Row(3))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				got := l.PredictSeq(seqs[1])
				for i := range wantSeq {
					if got[i] != wantSeq[i] {
						t.Errorf("concurrent PredictSeq diverged at %d", i)
						return
					}
				}
				out := m.PredictMulti(x.Row(3))
				for i := range wantOut {
					if out[i] != wantOut[i] {
						t.Errorf("concurrent PredictMulti diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
