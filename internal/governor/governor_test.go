package governor

import (
	"sync"
	"testing"

	"highrpm/internal/core"
	"highrpm/internal/dataset"
	"highrpm/internal/platform"
	"highrpm/internal/workload"
)

func TestHysteresisDecisions(t *testing.T) {
	h := &Hysteresis{MarginFrac: 0.2}
	if h.Act(101, 100) != Lower {
		t.Fatal("over cap must lower")
	}
	if h.Act(70, 100) != Raise {
		t.Fatal("well below must raise")
	}
	if h.Act(90, 100) != Hold {
		t.Fatal("inside band must hold")
	}
}

func TestPIDPullsTowardCap(t *testing.T) {
	p := &PID{}
	p.Reset()
	// Persistently over the cap: must keep lowering.
	for i := 0; i < 5; i++ {
		if p.Act(120, 100) != Lower {
			t.Fatalf("step %d: over-cap must lower", i)
		}
	}
	p.Reset()
	// Persistently far below: integral accumulates and raises.
	raised := false
	for i := 0; i < 5; i++ {
		if p.Act(60, 100) == Raise {
			raised = true
		}
	}
	if !raised {
		t.Fatal("sustained headroom must eventually raise")
	}
}

func TestPIDAntiWindup(t *testing.T) {
	p := &PID{}
	p.Reset()
	for i := 0; i < 1000; i++ {
		p.Act(50, 100)
	}
	// After long saturation, one strongly-over-cap second must flip the
	// decision quickly (within a few steps), not after unwinding 1000
	// integrations.
	for i := 0; i < 25; i++ {
		if p.Act(140, 100) == Lower {
			return
		}
	}
	t.Fatal("integral windup: controller cannot react to an over-cap burst")
}

func TestPredictivePreempts(t *testing.T) {
	p := NewPredictive(3)
	p.Reset()
	// Rising fast toward the cap but still below it: must lower now.
	p.Act(80, 100)
	if got := p.Act(92, 100); got != Lower {
		t.Fatalf("rising at 12 W/s toward a 100 W cap must preempt, got %v", got)
	}
	// Flat well below the cap: defers to the base policy (raise).
	p.Reset()
	p.Act(60, 100)
	if got := p.Act(60, 100); got != Raise {
		t.Fatalf("flat with headroom should raise, got %v", got)
	}
}

func TestRawIMHoldsLastReading(t *testing.T) {
	src := &RawIM{}
	v := 90.0
	got, err := src.Estimate(nil, &v)
	if err != nil || got != 90 {
		t.Fatalf("Estimate = %g, %v", got, err)
	}
	got, _ = src.Estimate(nil, nil)
	if got != 90 {
		t.Fatal("stale estimate must hold the last reading")
	}
}

// Shared trained model for the closed-loop tests.
var (
	modelOnce sync.Once
	model     *core.HighRPM
	modelErr  error
)

func trainedModel(t *testing.T) *core.HighRPM {
	t.Helper()
	modelOnce.Do(func() {
		cfg := dataset.DefaultGenerateConfig()
		cfg.SamplesPerSuite = 150
		train := &dataset.Set{}
		for _, s := range []string{workload.SuiteHPCC, workload.SuiteSPEC} {
			set, err := dataset.GenerateSuite(cfg, s)
			if err != nil {
				modelErr = err
				return
			}
			train.Append(set)
		}
		opts := core.DefaultOptions()
		opts.ActiveLearning = false
		opts.Dynamic.Epochs = 5
		opts.Dynamic.MaxWindows = 150
		model, modelErr = core.Train(train, opts)
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

func governedBench(t *testing.T) workload.Benchmark {
	t.Helper()
	b, err := workload.Find("Graph500/bfs")
	if err != nil {
		t.Fatal(err)
	}
	b.Repeat = 8
	return b
}

func armNode(t *testing.T, seed int64) *platform.Node {
	t.Helper()
	n, err := platform.NewNode(platform.ARMConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func cappingBench(t *testing.T) workload.Benchmark {
	t.Helper()
	b := governedBench(t)
	b.Repeat = 10
	return b
}

// capped runs Fig. 1's governor: hysteresis on raw IM readings every pi
// seconds, acting every ai seconds.
func capped(t *testing.T, seed int64, cap float64, pi, ai int, maxDuration float64) Outcome {
	t.Helper()
	out, err := Run(armNode(t, seed), cappingBench(t), &RawIM{}, &Hysteresis{},
		Config{CapWatts: cap, MissInterval: pi, ActInterval: ai, MaxDuration: maxDuration})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCappingReducesPeakPower(t *testing.T) {
	uncapped := armNode(t, 2).Run(cappingBench(t), 2000, 1)
	res := capped(t, 2, 90, 1, 1, 0)
	if res.PeakW >= uncapped.PeakPower() {
		t.Fatalf("capping did not reduce peak: %g vs %g", res.PeakW, uncapped.PeakPower())
	}
	// Over-cap time must be a small fraction of the run with 1 s reactions.
	if res.OverCapSeconds > 0.35*res.CompletionSeconds {
		t.Fatalf("over-cap %g s of %g s — governor ineffective", res.OverCapSeconds, res.CompletionSeconds)
	}
}

func TestSlowerActionsRaisePeak(t *testing.T) {
	fast, slow := capped(t, 3, 90, 1, 1, 0), capped(t, 3, 90, 1, 30, 0)
	if slow.PeakW <= fast.PeakW {
		t.Fatalf("AI=30 peak %g must exceed AI=1 peak %g (Fig. 1 shape)", slow.PeakW, fast.PeakW)
	}
	if slow.OverCapSeconds <= fast.OverCapSeconds {
		t.Fatalf("AI=30 over-cap %g must exceed AI=1 %g", slow.OverCapSeconds, fast.OverCapSeconds)
	}
}

func TestCappingExtendsRuntime(t *testing.T) {
	uncapped := armNode(t, 4).Run(cappingBench(t), 4000, 1)
	res := capped(t, 4, 80, 1, 1, 0)
	if res.CompletionSeconds <= uncapped.Duration() {
		t.Fatalf("aggressive capping should slow the program: %g vs %g s",
			res.CompletionSeconds, uncapped.Duration())
	}
}

func TestCappingRecordsActionsAndReadings(t *testing.T) {
	res := capped(t, 5, 90, 10, 10, 200)
	if res.CompletionSeconds != 200 {
		t.Fatalf("ran %g s, bounded at 200", res.CompletionSeconds)
	}
	// 200 s at one reading per 10 s: 20 readings, each over-cap one an
	// over-cap second.
	if res.OverCapReadings == 0 || res.OverCapReadings > 20 || float64(res.OverCapReadings) > res.OverCapSeconds {
		t.Fatalf("%d over-cap readings, %g over-cap seconds over 200 s at PI=10",
			res.OverCapReadings, res.OverCapSeconds)
	}
	if res.MeanFreqGHz < 1.4 || res.MeanFreqGHz > 2.2 {
		t.Fatalf("mean frequency %g outside DVFS range", res.MeanFreqGHz)
	}
}

func TestRunValidation(t *testing.T) {
	node, err := platform.NewNode(platform.ARMConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(node, governedBench(t), &RawIM{}, &Hysteresis{}, Config{}); err == nil {
		t.Fatal("zero cap must fail")
	}
}

func TestGovernedRunRespectsCap(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped in -short")
	}
	b := governedBench(t)
	// Uncapped reference.
	free, err := platform.NewNode(platform.ARMConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	uncapped := free.Run(b, 4000, 1)

	node, err := platform.NewNode(platform.ARMConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	src := NewModelSource(trainedModel(t))
	out, err := Run(node, b, src, &Hysteresis{}, Config{CapWatts: 95, MissInterval: 10})
	if err != nil {
		t.Fatal(err)
	}
	if out.PeakW >= uncapped.PeakPower() {
		t.Fatalf("governed peak %g not below uncapped %g", out.PeakW, uncapped.PeakPower())
	}
	if out.OverCapSeconds > 0.4*out.CompletionSeconds {
		t.Fatalf("over cap %g of %g s", out.OverCapSeconds, out.CompletionSeconds)
	}
}

func TestModelSourceBeatsRawOnOverCapTime(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped in -short")
	}
	b := governedBench(t)
	// Cap 100 W sits in the regime where the governor actually moves
	// between DVFS levels; lower caps pin both runs at the bottom level
	// and the estimate source cannot matter.
	run := func(src Source) Outcome {
		node, err := platform.NewNode(platform.ARMConfig(), 3)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(node, b, src, &Hysteresis{MarginFrac: 0.15}, Config{CapWatts: 100, MissInterval: 10})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	raw := run(&RawIM{})
	hr := run(NewModelSource(trainedModel(t)))
	if hr.OverCapSeconds >= raw.OverCapSeconds {
		t.Fatalf("HighRPM source over-cap %g must beat raw IM %g (the Fig. 1 story)",
			hr.OverCapSeconds, raw.OverCapSeconds)
	}
}
