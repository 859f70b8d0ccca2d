package tree

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"

	"highrpm/internal/mat"
)

// Golden hashes of fixed-seed fitted ensembles, captured from the original
// implementation (sort.Slice presort, per-tree workspaces, global-gain split
// scan). Every rewrite since — the presort's comparison order, the rebound
// workspace, the per-feature split scan, the forest's single bootstrap
// buffer — must keep reproducing them byte-for-byte.
const (
	goldenTreeHash   = "fcfa25b9a78fd6138bca3be3bc8938daf0a666f3083790c71d5c2e73fde04e1a"
	goldenForestHash = "0a4c84935a2d1ab94c331bfea345be70b6c2c9e07f6c034632b4dc098ea715b1"
	goldenGBHash     = "cf5a97eda4e28b4fc21fd271b32c4a7a263ae7ee626e2c4cc01431501099f008"
)

func goldenXY(seed int64, n, c int) (*mat.Dense, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(n, c)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < c; j++ {
			// Mix of continuous and low-cardinality columns to exercise ties.
			if j%3 == 0 {
				x.Set(i, j, float64(rng.Intn(8)))
			} else {
				x.Set(i, j, rng.NormFloat64())
			}
		}
		y[i] = rng.NormFloat64()*4 + 30
	}
	return x, y
}

func marshalHash(t *testing.T, m any) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestFittedModelsMatchGolden(t *testing.T) {
	x, y := goldenXY(3, 600, 9)
	tr := NewRegressor()
	tr.MaxDepth = 12
	tr.MinSamplesLeaf = 2
	tr.Seed = 11
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if h := marshalHash(t, tr); h != goldenTreeHash {
		t.Errorf("Regressor hash = %s, want golden %s", h, goldenTreeHash)
	}

	f := NewForest(5, 13)
	f.MaxDepth = 10
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if h := marshalHash(t, f); h != goldenForestHash {
		t.Errorf("Forest hash = %s, want golden %s", h, goldenForestHash)
	}

	g := NewGradientBoosting(5, 17)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if h := marshalHash(t, g); h != goldenGBHash {
		t.Errorf("GradientBoosting hash = %s, want golden %s", h, goldenGBHash)
	}
}

// BenchmarkTreeFit measures a deep single-tree fit on 6 144 rows × 10
// features, where the split scan over the large top-of-tree nodes dominates.
func BenchmarkTreeFit(b *testing.B) {
	x, y := goldenXY(21, 6144, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := NewRegressor()
		tr.MaxDepth = 10
		tr.MinSamplesLeaf = 2
		tr.Seed = 5
		if err := tr.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
