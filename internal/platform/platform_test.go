package platform

import (
	"math"
	"testing"
	"testing/quick"

	"highrpm/internal/pmu"
	"highrpm/internal/workload"
)

func mustNode(t *testing.T, cfg Config, seed int64) *Node {
	t.Helper()
	n, err := NewNode(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustBench(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	b, err := workload.Find(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConfigValidate(t *testing.T) {
	good := ARMConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Fatal("zero cores must fail")
	}
	bad = good
	bad.FreqLevels = nil
	if bad.Validate() == nil {
		t.Fatal("no freq levels must fail")
	}
	bad = good
	bad.FreqLevels = []float64{2.2, 1.4}
	if bad.Validate() == nil {
		t.Fatal("descending freq levels must fail")
	}
	bad = good
	bad.CPUDyn = 0
	if bad.Validate() == nil {
		t.Fatal("zero dynamic range must fail")
	}
}

func TestBothPlatformConfigsValid(t *testing.T) {
	for _, cfg := range []Config{ARMConfig(), X86Config()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
	if arm, x86 := ARMConfig().Arch, X86Config().Arch; arm != "arm64" || x86 != "x86_64" {
		t.Fatalf("arches %q, %q want arm64, x86_64", arm, x86)
	}
}

func TestNodePowerIsSumOfComponents(t *testing.T) {
	n := mustNode(t, ARMConfig(), 1)
	n.Attach(mustBench(t, "HPCC/FFT"))
	for i := 0; i < 100; i++ {
		s := n.Step(1)
		sum := s.PCPU + s.PMEM + s.POther
		if math.Abs(s.PNode-sum) > 5*ARMConfig().NodeNoise {
			t.Fatalf("PNode %g too far from component sum %g", s.PNode, sum)
		}
	}
}

func TestPowerPlausibleBounds(t *testing.T) {
	cfg := ARMConfig()
	n := mustNode(t, cfg, 2)
	n.Attach(mustBench(t, "Graph500/bfs"))
	for i := 0; i < 200; i++ {
		s := n.Step(1)
		if s.PCPU < 0 || s.PCPU > 200 {
			t.Fatalf("PCPU = %g out of plausible range", s.PCPU)
		}
		if s.PMEM < 0 || s.PMEM > 100 {
			t.Fatalf("PMEM = %g out of plausible range", s.PMEM)
		}
		if math.Abs(s.POther-cfg.Other) > 1 {
			t.Fatalf("POther = %g, paper says 25 W ± <1 W", s.POther)
		}
	}
}

func TestCountersNonNegative(t *testing.T) {
	n := mustNode(t, X86Config(), 3)
	n.Attach(mustBench(t, "HPCC/STREAM"))
	for i := 0; i < 100; i++ {
		s := n.Step(1)
		for e := 0; e < pmu.NumEvents; e++ {
			if s.Counters[e] < 0 {
				t.Fatalf("counter %s negative", pmu.Event(e))
			}
		}
	}
}

func TestDVFSReducesPower(t *testing.T) {
	cfg := ARMConfig()
	run := func(freq float64) float64 {
		n := mustNode(t, cfg, 4)
		if err := n.SetFrequency(freq); err != nil {
			t.Fatal(err)
		}
		n.Attach(mustBench(t, "HPL-AI/hpl-ai"))
		var sum float64
		for i := 0; i < 120; i++ {
			sum += n.Step(1).PCPU
		}
		return sum / 120
	}
	low, high := run(1.4), run(2.2)
	if low >= high {
		t.Fatalf("CPU power at 1.4 GHz (%g) must be below 2.2 GHz (%g)", low, high)
	}
	// The α≈2.2 exponent means the drop is super-linear.
	if high/low < 1.5 {
		t.Fatalf("frequency scaling too weak: %g vs %g", low, high)
	}
}

func TestSetFrequencyRejectsUnknownLevel(t *testing.T) {
	n := mustNode(t, ARMConfig(), 5)
	if err := n.SetFrequency(3.0); err == nil {
		t.Fatal("expected error for unknown DVFS level")
	}
}

func TestStepFrequencySaturates(t *testing.T) {
	n := mustNode(t, ARMConfig(), 6)
	for i := 0; i < 10; i++ {
		n.StepFrequency(-1)
	}
	if n.Frequency() != 1.4 {
		t.Fatalf("freq = %g want 1.4 (floor)", n.Frequency())
	}
	for i := 0; i < 10; i++ {
		n.StepFrequency(+1)
	}
	if n.Frequency() != 2.2 {
		t.Fatalf("freq = %g want 2.2 (ceiling)", n.Frequency())
	}
}

func TestRunForExactDuration(t *testing.T) {
	n := mustNode(t, ARMConfig(), 7)
	tr := n.RunFor(mustBench(t, "HPCC/DGEMM"), 123, 1)
	if len(tr.Samples) != 123 {
		t.Fatalf("RunFor produced %d samples want 123", len(tr.Samples))
	}
}

func TestRunStopsWhenDone(t *testing.T) {
	b := workload.Benchmark{
		Name: "short", Suite: "t",
		Phases: []workload.Phase{{Duration: 30, Util: 0.5, IPC: 1, Mem: 0.2}},
		Repeat: 1,
	}
	n := mustNode(t, ARMConfig(), 8)
	tr := n.Run(b, 1000, 1)
	if len(tr.Samples) < 28 || len(tr.Samples) > 35 {
		t.Fatalf("30 s program ran for %d samples", len(tr.Samples))
	}
}

func TestTraceHelpers(t *testing.T) {
	n := mustNode(t, ARMConfig(), 9)
	tr := n.RunFor(mustBench(t, "HPCC/FFT"), 50, 1)
	if tr.Duration() != 50 {
		t.Fatalf("Duration = %g", tr.Duration())
	}
	if len(tr.NodePower()) != 50 || len(tr.CPUPower()) != 50 || len(tr.MemPower()) != 50 || len(tr.Times()) != 50 {
		t.Fatal("series lengths wrong")
	}
	if tr.Energy() <= 0 || tr.PeakPower() <= 0 {
		t.Fatal("energy/peak must be positive")
	}
	if tr.PeakPower()*tr.Duration() < tr.Energy() {
		t.Fatal("peak·duration must bound energy")
	}
}

// Property: simulation is deterministic per (config, seed, benchmark).
func TestSimulationDeterministicProperty(t *testing.T) {
	benches := workload.Suite()
	f := func(seed int64, pick uint8) bool {
		b := benches[int(pick)%len(benches)]
		n1 := must(NewNode(ARMConfig(), seed))
		n2 := must(NewNode(ARMConfig(), seed))
		t1 := n1.RunFor(b, 30, 1)
		t2 := n2.RunFor(b, 30, 1)
		for i := range t1.Samples {
			if t1.Samples[i].PNode != t2.Samples[i].PNode {
				return false
			}
			if t1.Samples[i].Counters != t2.Samples[i].Counters {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func must(n *Node, err error) *Node {
	if err != nil {
		panic(err)
	}
	return n
}

func TestIdleNodePower(t *testing.T) {
	cfg := ARMConfig()
	n := mustNode(t, cfg, 10)
	// No workload attached: node draws idle + other only.
	var sum float64
	for i := 0; i < 60; i++ {
		sum += n.Step(1).PNode
	}
	avg := sum / 60
	idle := cfg.CPUIdle + cfg.MemIdle + cfg.Other
	if math.Abs(avg-idle) > 8 {
		t.Fatalf("idle node power %g want ~%g", avg, idle)
	}
}
