package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func defaultPPConfig() postProcessConfig {
	return postProcessConfig{PUpper: 120, PBottom: 40, Alpha: 0.05, Beta: 0.20, MissInterval: 10}
}

func TestPostProcessAgreementUsesSpline(t *testing.T) {
	spl := []float64{80, 80, 80}
	res := []float64{81, 80.5, 79} // within 5% of min
	out := postProcess(spl, res, defaultPPConfig())
	for i := range out {
		if out[i] != spl[i] {
			t.Fatalf("close agreement must keep the spline at %d: %g", i, out[i])
		}
	}
}

func TestPostProcessMidDisagreementAverages(t *testing.T) {
	spl := []float64{80}
	res := []float64{88} // 10% gap: between alpha and beta
	out := postProcess(spl, res, defaultPPConfig())
	if out[0] != 84 {
		t.Fatalf("mid disagreement must average: %g want 84", out[0])
	}
}

func TestPostProcessLargeDisagreementTrustsSpline(t *testing.T) {
	spl := []float64{80}
	res := []float64{110} // far beyond beta
	out := postProcess(spl, res, defaultPPConfig())
	if out[0] != 80 {
		t.Fatalf("large disagreement must fall back to spline: %g", out[0])
	}
}

func TestPostProcessClampsImplausibleResidual(t *testing.T) {
	// Residual estimates beyond the power band are replaced by the spline
	// (Operations 2 and 3), so the output equals the spline.
	spl := []float64{80, 80}
	res := []float64{130, 20} // above PUpper, below PBottom
	out := postProcess(spl, res, defaultPPConfig())
	for i := range out {
		if out[i] != 80 {
			t.Fatalf("clamp failed at %d: %g", i, out[i])
		}
	}
}

func TestPostProcessSpikePropagation(t *testing.T) {
	// A single spline spike well beyond 30% of the range must be held
	// across the half window (Operation 1).
	n := 21
	spl := make([]float64, n)
	res := make([]float64, n)
	for i := range spl {
		spl[i] = 60
		res[i] = 60
	}
	spl[10] = 118 // deviation 58 ≥ 0.3·80
	cfg := defaultPPConfig()
	out := postProcess(spl, res, cfg)
	for i := 10 - cfg.MissInterval/2; i <= 10+cfg.MissInterval/2; i++ {
		if out[i] < 100 {
			t.Fatalf("spike not propagated to %d: %g", i, out[i])
		}
	}
	if out[0] != 60 {
		t.Fatalf("spike leaked to the start: %g", out[0])
	}
}

func TestPostProcessLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	postProcess([]float64{1}, []float64{1, 2}, defaultPPConfig())
}

func TestPostProcessDoesNotMutateInputs(t *testing.T) {
	spl := []float64{80, 90}
	res := []float64{130, 95}
	postProcess(spl, res, defaultPPConfig())
	if res[0] != 130 || spl[0] != 80 {
		t.Fatal("inputs were mutated")
	}
}

// Property: output is always within [min, max] of the two (clamped) input
// estimates per element — blending never extrapolates.
func TestPostProcessBlendBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		cfg := defaultPPConfig()
		spl := make([]float64, n)
		res := make([]float64, n)
		for i := range spl {
			spl[i] = 60 + rng.Float64()*20 // keep spline tame so Op1 is quiet
			res[i] = 40 + rng.Float64()*80
		}
		out := postProcess(spl, res, cfg)
		for i := range out {
			lo := math.Min(spl[i], res[i])
			hi := math.Max(spl[i], res[i])
			// After clamping, res may be replaced by spl; widen with spl.
			lo = math.Min(lo, spl[i])
			hi = math.Max(hi, spl[i])
			if out[i] < lo-1e-9 || out[i] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPostProcessDefaultsFill(t *testing.T) {
	// Zero alpha/beta/missInterval must not panic or divide by zero.
	out := postProcess([]float64{50, 60}, []float64{55, 62}, postProcessConfig{PUpper: 100, PBottom: 10})
	for _, v := range out {
		if math.IsNaN(v) {
			t.Fatal("NaN from default config")
		}
	}
}
