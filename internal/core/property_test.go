package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: StaticTRR restoration always honours the sensor readings at the
// measured indices exactly, for arbitrary measured subsets and values, and
// never emits values wildly outside the plausible band.
func TestStaticTRRHonorsReadingsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped in -short")
	}
	train := trainSet(t, 150)
	st, err := FitStaticTRR(train, DefaultStaticTRROptions())
	if err != nil {
		t.Fatal(err)
	}
	test := testSet(t, 120)
	band := st.PUpper - st.PBottom

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random measured subset: strictly increasing indices, gaps 3..20.
		var idx []int
		for i := 0; i < test.Len(); i += 3 + rng.Intn(18) {
			idx = append(idx, i)
		}
		if len(idx) < 2 {
			return true
		}
		vals := make([]float64, len(idx))
		for k := range vals {
			vals[k] = st.PBottom + rng.Float64()*band
		}
		est, err := st.Restore(test, idx, vals)
		if err != nil {
			return false
		}
		for k, i := range idx {
			if est[i] != vals[k] {
				return false
			}
		}
		lo := st.PBottom - 0.5*band
		hi := st.PUpper + 0.5*band
		for _, v := range est {
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: Algorithm 1's output length always matches its input and the
// function is deterministic.
func TestPostProcessDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(80)
		spl := make([]float64, n)
		res := make([]float64, n)
		for i := range spl {
			spl[i] = 50 + rng.Float64()*60
			res[i] = 50 + rng.Float64()*60
		}
		cfg := postProcessConfig{PUpper: 120, PBottom: 40, Alpha: 0.05, Beta: 0.2, MissInterval: 10}
		a := postProcess(spl, res, cfg)
		b := postProcess(spl, res, cfg)
		if len(a) != n {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
