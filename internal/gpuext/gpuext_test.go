package gpuext

import (
	"math"
	"testing"

	"highrpm/internal/core"
	"highrpm/internal/linmodel"
	"highrpm/internal/model"
	"highrpm/internal/stats"
)

func device(t *testing.T, seed int64) *Device {
	t.Helper()
	d, err := NewDevice(DefaultDevice(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCounterNames(t *testing.T) {
	if NumCounters != 4 || len(counterNames) != NumCounters {
		t.Fatal("GPU extension defines 4 counters")
	}
	if Counter(-1).String() == "" {
		t.Fatal("out-of-range name empty")
	}
}

func TestDeviceValidation(t *testing.T) {
	if _, err := NewDevice(DeviceConfig{}, 1); err == nil {
		t.Fatal("expected config error")
	}
}

func TestKernelsExist(t *testing.T) {
	ks := Kernels()
	if len(ks) < 4 {
		t.Fatalf("only %d kernels", len(ks))
	}
	names := map[string]bool{}
	for _, k := range ks {
		if names[k.Name] {
			t.Fatalf("duplicate kernel %s", k.Name)
		}
		names[k.Name] = true
		if len(k.Phases) == 0 {
			t.Fatalf("%s has no phases", k.Name)
		}
	}
}

func TestTracePlausible(t *testing.T) {
	d := device(t, 1)
	tr := d.Run(Kernels()[0], 120)
	if len(tr.Samples) != 120 {
		t.Fatalf("%d samples", len(tr.Samples))
	}
	cfg := DefaultDevice()
	for i, s := range tr.Samples {
		if s.Power < 0 || s.Power > cfg.Idle+cfg.SMDyn+cfg.MemDyn+6*cfg.Wander {
			t.Fatalf("sample %d power %g implausible", i, s.Power)
		}
		for c := 0; c < NumCounters; c++ {
			if s.Counters[c] < 0 {
				t.Fatalf("negative counter at %d", i)
			}
		}
	}
}

func TestComputeVsMemoryKernelsDiffer(t *testing.T) {
	d1 := device(t, 2)
	gemm := d1.Run(Kernels()[0], 100) // compute-heavy
	d2 := device(t, 2)
	stencil := d2.Run(Kernels()[1], 100) // bandwidth-heavy
	var gemmBW, stencilBW float64
	for i := range gemm.Samples {
		gemmBW += gemm.Samples[i].Counters[DRAMReadBytes]
		stencilBW += stencil.Samples[i].Counters[DRAMReadBytes]
	}
	if stencilBW <= gemmBW {
		t.Fatal("stencil must move more device memory than gemm")
	}
}

// fitTRR trains core's StaticTRR on a device trace, the counters standing in
// for the PMCs.
func fitTRR(train *Trace, missInterval int) (*core.StaticTRR, error) {
	return core.FitStaticTRR(train.Set(), core.StaticTRROptions{MissInterval: missInterval})
}

func TestTRRRestoresGPUPower(t *testing.T) {
	d := device(t, 3)
	// Train on a mix covering the device's power band, test on one kernel.
	train := d.RunMix(Kernels()[:3], 150)
	trr, err := fitTRR(train, 10)
	if err != nil {
		t.Fatal(err)
	}
	test := device(t, 4).Run(Kernels()[3], 200).Set()
	m, err := trr.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	// The graph kernel oscillates faster than the reading interval, the
	// hardest case for trend-based restoration; 20% bounds the absolute
	// error while the comparative assertion below carries the real claim.
	if m.MAPE > 20 {
		t.Fatalf("GPU TRR MAPE %.1f%% too high", m.MAPE)
	}

	// It must beat the counter-only linear model, as on the CPU side.
	lr := &model.ScaledRegressor{Inner: linmodel.NewLinear()}
	set := train.Set()
	if err := lr.Fit(set.PMCMatrix(), set.NodePower()); err != nil {
		t.Fatal(err)
	}
	lrM := stats.Evaluate(test.NodePower(), model.PredictBatch(lr, test.PMCMatrix()))
	if m.MAPE >= lrM.MAPE {
		t.Fatalf("GPU TRR %.2f%% must beat counter-only LR %.2f%%", m.MAPE, lrM.MAPE)
	}
}

func TestTRRMeasuredPointsExact(t *testing.T) {
	d := device(t, 5)
	trr, err := fitTRR(d.Run(Kernels()[1], 250), 10)
	if err != nil {
		t.Fatal(err)
	}
	test := device(t, 6).Run(Kernels()[3], 150).Set()
	est, err := trr.Restore(test, test.MeasuredIndices(10), nil)
	if err != nil {
		t.Fatal(err)
	}
	power := test.NodePower()
	for i := 0; i < len(power); i += 10 {
		if est[i] != power[i] {
			t.Fatalf("measured point %d not exact", i)
		}
	}
	for i, v := range est {
		if math.IsNaN(v) {
			t.Fatalf("NaN at %d", i)
		}
	}
}

func TestFitTRRTooShort(t *testing.T) {
	d := device(t, 7)
	tr := d.Run(Kernels()[0], 15)
	if _, err := fitTRR(tr, 10); err == nil {
		t.Fatal("expected too-short error")
	}
}
