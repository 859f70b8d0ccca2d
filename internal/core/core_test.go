package core

import (
	"math"
	"testing"

	"highrpm/internal/dataset"
	"highrpm/internal/platform"
	"highrpm/internal/workload"
)

// trainSet builds a compact multi-suite training set for core tests.
func trainSet(t testing.TB, perSuite int) *dataset.Set {
	t.Helper()
	cfg := dataset.DefaultGenerateConfig()
	cfg.SamplesPerSuite = perSuite
	out := &dataset.Set{}
	for _, s := range []string{workload.SuiteHPCC, workload.SuiteSPEC, workload.SuiteSMG2000} {
		set, err := dataset.GenerateSuite(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		out.Append(set)
	}
	return out
}

// testSet builds an evaluation trace from a program outside trainSet.
func testSet(t *testing.T, n int) *dataset.Set {
	t.Helper()
	node, err := platform.NewNode(platform.ARMConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Find("HPCG/hpcg")
	if err != nil {
		t.Fatal(err)
	}
	tr := node.RunFor(b, float64(n), 1)
	return dataset.FromTrace(tr, "HPCG", b.Name)
}

func TestStaticTRRRestore(t *testing.T) {
	train := trainSet(t, 200)
	st, err := FitStaticTRR(train, DefaultStaticTRROptions())
	if err != nil {
		t.Fatal(err)
	}
	test := testSet(t, 200)
	idx := test.MeasuredIndices(10)
	est, err := st.Restore(test, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != test.Len() {
		t.Fatalf("restored %d values for %d samples", len(est), test.Len())
	}
	// Measured points are authoritative.
	for _, i := range idx {
		if est[i] != test.Samples[i].PNode {
			t.Fatalf("measured point %d not exact: %g vs %g", i, est[i], test.Samples[i].PNode)
		}
	}
	m, err := st.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if m.MAPE > 12 {
		t.Fatalf("StaticTRR MAPE %.2f%% too high for a smooth workload", m.MAPE)
	}
}

func TestStaticTRRWithSensorReadings(t *testing.T) {
	train := trainSet(t, 200)
	st, err := FitStaticTRR(train, DefaultStaticTRROptions())
	if err != nil {
		t.Fatal(err)
	}
	test := testSet(t, 150)
	idx := test.MeasuredIndices(10)
	// Noisy IM readings instead of ground truth.
	vals := make([]float64, len(idx))
	for k, i := range idx {
		vals[k] = test.Samples[i].PNode + 1.0
	}
	est, err := st.Restore(test, idx, vals)
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range idx {
		if est[i] != vals[k] {
			t.Fatal("sensor values must override ground truth at measured points")
		}
	}
}

func TestStaticTRRTooFewSamples(t *testing.T) {
	small := testSet(t, 5)
	if _, err := FitStaticTRR(small, DefaultStaticTRROptions()); err == nil {
		t.Fatal("expected error for tiny training set")
	}
}

func TestSplineOnlyBeatsNothing(t *testing.T) {
	test := testSet(t, 200)
	idx := test.MeasuredIndices(10)
	spl, err := SplineOnly(test, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	truth := test.NodePower()
	var sq, sqMean float64
	mean := 0.0
	for _, v := range truth {
		mean += v
	}
	mean /= float64(len(truth))
	for i := range truth {
		sq += (spl[i] - truth[i]) * (spl[i] - truth[i])
		sqMean += (mean - truth[i]) * (mean - truth[i])
	}
	if sq >= sqMean {
		t.Fatal("spline must beat the constant-mean predictor")
	}
}

func TestDynamicTRRRunShapes(t *testing.T) {
	train := trainSet(t, 150)
	opts := DefaultDynamicTRROptions()
	opts.Epochs = 6
	opts.MaxWindows = 200
	dyn, err := FitDynamicTRR(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	test := testSet(t, 120)
	idx := test.MeasuredIndices(10)
	est, err := dyn.Run(test, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != test.Len() {
		t.Fatalf("Run returned %d values", len(est))
	}
	for _, i := range idx {
		if est[i] != test.Samples[i].PNode {
			t.Fatal("measured points must be exact in Run output")
		}
	}
	for i, v := range est {
		if math.IsNaN(v) || v <= 0 {
			t.Fatalf("estimate %d = %g", i, v)
		}
	}
}

func TestDynamicTRREmptySet(t *testing.T) {
	train := trainSet(t, 150)
	opts := DefaultDynamicTRROptions()
	opts.Epochs = 2
	opts.MaxWindows = 100
	dyn, err := FitDynamicTRR(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dyn.Run(&dataset.Set{}, nil, nil); err == nil {
		t.Fatal("expected error for empty set")
	}
}

func TestSRRPredictsComponents(t *testing.T) {
	train := trainSet(t, 200)
	srr, err := FitSRR(train, nil, DefaultSRROptions())
	if err != nil {
		t.Fatal(err)
	}
	test := testSet(t, 150)
	pcpu, pmem := srr.PredictSet(test, nil)
	if len(pcpu) != test.Len() || len(pmem) != test.Len() {
		t.Fatal("prediction lengths wrong")
	}
	cpuM, memM := srr.Evaluate(test, nil)
	if cpuM.MAPE > 30 || memM.MAPE > 30 {
		t.Fatalf("SRR errors too high: cpu %.1f%% mem %.1f%%", cpuM.MAPE, memM.MAPE)
	}
	// The split must roughly conserve node power minus peripherals.
	for i := 0; i < test.Len(); i += 25 {
		sum := pcpu[i] + pmem[i] + 25
		if math.Abs(sum-test.Samples[i].PNode) > 30 {
			t.Fatalf("component sum %g far from node power %g", sum, test.Samples[i].PNode)
		}
	}
}

func TestSRRWithoutNodeFeature(t *testing.T) {
	train := trainSet(t, 150)
	opts := DefaultSRROptions()
	opts.UseNode = false
	srr, err := FitSRR(train, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	test := testSet(t, 100)
	pcpu, _ := srr.PredictSet(test, nil)
	if len(pcpu) != 100 {
		t.Fatal("ablated SRR must still predict")
	}
}

func TestSRRNodeFeatureImproves(t *testing.T) {
	// Table 8's claim as a unit test: with P_Node beats without.
	train := trainSet(t, 250)
	test := testSet(t, 200)

	with, err := FitSRR(train, nil, DefaultSRROptions())
	if err != nil {
		t.Fatal(err)
	}
	noOpts := DefaultSRROptions()
	noOpts.UseNode = false
	without, err := FitSRR(train, nil, noOpts)
	if err != nil {
		t.Fatal(err)
	}
	cpuWith, _ := with.Evaluate(test, nil)
	cpuWithout, _ := without.Evaluate(test, nil)
	if cpuWith.MAPE >= cpuWithout.MAPE {
		t.Fatalf("P_Node feature must improve P_CPU: %.2f%% vs %.2f%%", cpuWith.MAPE, cpuWithout.MAPE)
	}
}

func TestSRRFineTune(t *testing.T) {
	train := trainSet(t, 150)
	srr, err := FitSRR(train, nil, DefaultSRROptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := srr.FineTune(train, nil, 2); err != nil {
		t.Fatal(err)
	}
	unfitted := &SRR{Opts: DefaultSRROptions()}
	if err := unfitted.FineTune(train, nil, 2); err == nil {
		t.Fatal("expected error for unfitted fine-tune")
	}
}

func TestSRREmptySet(t *testing.T) {
	if _, err := FitSRR(&dataset.Set{}, nil, DefaultSRROptions()); err == nil {
		t.Fatal("expected error")
	}
}

func TestTrainFullFramework(t *testing.T) {
	train := trainSet(t, 150)
	opts := DefaultOptions()
	opts.Dynamic.Epochs = 5
	opts.Dynamic.MaxWindows = 150
	h, err := Train(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if h.Static == nil || h.Dynamic == nil || h.SRR == nil {
		t.Fatal("incomplete framework")
	}
	if h.TrainStats.InitialSamples != train.Len() {
		t.Fatal("train stats wrong")
	}
	if opts.ActiveLearning && h.TrainStats.ReinforceCount == 0 {
		t.Fatal("active learning drew no reinforcement samples")
	}

	test := testSet(t, 120)
	rep, err := h.Evaluate(test, ModeStatic)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Node.N == 0 || rep.CPU.N == 0 || rep.Mem.N == 0 {
		t.Fatal("empty evaluation report")
	}
	node, pcpu, pmem, err := h.Restore(test, test.MeasuredIndices(10), nil, ModeDynamic)
	if err != nil {
		t.Fatal(err)
	}
	if len(node) != 120 || len(pcpu) != 120 || len(pmem) != 120 {
		t.Fatal("restore lengths wrong")
	}
}

func TestTrainEmptySet(t *testing.T) {
	if _, err := Train(&dataset.Set{}, DefaultOptions()); err == nil {
		t.Fatal("expected error")
	}
}

func TestRestoreUnknownMode(t *testing.T) {
	train := trainSet(t, 150)
	opts := DefaultOptions()
	opts.ActiveLearning = false
	opts.Dynamic.Epochs = 2
	opts.Dynamic.MaxWindows = 100
	h, err := Train(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.RestoreTemporal(testSet(t, 50), []int{0, 10}, nil, RestoreMode(99)); err == nil {
		t.Fatal("expected unknown-mode error")
	}
}

func TestSetMissInterval(t *testing.T) {
	opts := DefaultOptions()
	opts.SetMissInterval(25)
	if opts.Static.MissInterval != 25 || opts.Dynamic.MissInterval != 25 {
		t.Fatal("SetMissInterval must update both models")
	}
}
