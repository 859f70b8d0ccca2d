package attribution

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"highrpm/internal/platform"
	"highrpm/internal/workload"
)

func TestAttributeConservesPower(t *testing.T) {
	jobs := []JobActivity{
		{JobID: "a", Cycles: 3e10, MemAccesses: 1e8, CoreShare: 0.5},
		{JobID: "b", Cycles: 1e10, MemAccesses: 3e8, CoreShare: 0.25},
	}
	powers, err := Attribute(60, 30, jobs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range powers {
		sum += p.TotalW()
	}
	if math.Abs(sum-90) > 1e-9 {
		t.Fatalf("attributed %.3f W of 90 W", sum)
	}
}

func TestAttributeProportionalToActivity(t *testing.T) {
	cfg := Config{CPUIdleW: 10, MEMIdleW: 5}
	jobs := []JobActivity{
		{JobID: "hot", Cycles: 9e10, MemAccesses: 0, CoreShare: 0.5},
		{JobID: "cold", Cycles: 1e10, MemAccesses: 0, CoreShare: 0.5},
	}
	powers, err := Attribute(110, 5, jobs, cfg) // 100 W dynamic CPU
	if err != nil {
		t.Fatal(err)
	}
	// hot: 5 idle + 90 dyn; cold: 5 idle + 10 dyn.
	if math.Abs(powers[0].CPUW-95) > 1e-9 {
		t.Fatalf("hot CPU = %g want 95", powers[0].CPUW)
	}
	if math.Abs(powers[1].CPUW-15) > 1e-9 {
		t.Fatalf("cold CPU = %g want 15", powers[1].CPUW)
	}
}

func TestAttributeIdleOnlyNode(t *testing.T) {
	cfg := Config{CPUIdleW: 12, MEMIdleW: 8}
	jobs := []JobActivity{
		{JobID: "a", CoreShare: 0.75},
		{JobID: "b", CoreShare: 0.25},
	}
	powers, err := Attribute(12, 8, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Idle CPU split 9/3 by share; idle MEM split 4/4 evenly.
	if math.Abs(powers[0].CPUW-9) > 1e-9 || math.Abs(powers[1].CPUW-3) > 1e-9 {
		t.Fatalf("idle CPU split = %g/%g want 9/3", powers[0].CPUW, powers[1].CPUW)
	}
	if math.Abs(powers[0].MEMW-4) > 1e-9 {
		t.Fatalf("idle MEM split = %g want 4", powers[0].MEMW)
	}
}

func TestAttributeValidation(t *testing.T) {
	if _, err := Attribute(50, 20, nil, DefaultConfig()); err == nil {
		t.Fatal("no jobs must fail")
	}
	bad := []JobActivity{{JobID: "x", Cycles: -1}}
	if _, err := Attribute(50, 20, bad, DefaultConfig()); err == nil {
		t.Fatal("negative activity must fail")
	}
	over := []JobActivity{{JobID: "a", CoreShare: 0.7}, {JobID: "b", CoreShare: 0.7}}
	if _, err := Attribute(50, 20, over, DefaultConfig()); err == nil {
		t.Fatal("core shares > 1 must fail")
	}
}

// Property: attribution conserves power for arbitrary job mixes.
func TestAttributeConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(6)
		jobs := make([]JobActivity, k)
		share := 1.0
		for i := range jobs {
			s := share * rng.Float64() / 2
			jobs[i] = JobActivity{
				JobID:       string(rune('a' + i)),
				Cycles:      rng.Float64() * 1e11,
				MemAccesses: rng.Float64() * 1e9,
				CoreShare:   s,
			}
			share -= s
		}
		pcpu := 12 + rng.Float64()*80
		pmem := 8 + rng.Float64()*35
		powers, err := Attribute(pcpu, pmem, jobs, DefaultConfig())
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range powers {
			sum += p.TotalW()
		}
		return math.Abs(sum-(pcpu+pmem)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger()
	l.Add([]JobPower{{JobID: "a", CPUW: 40, MEMW: 10}, {JobID: "b", CPUW: 20, MEMW: 5}})
	l.Add([]JobPower{{JobID: "a", CPUW: 60, MEMW: 10}})
	entries := l.Entries()
	if len(entries) != 2 || entries[0].JobID != "a" {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].EnergyJ != 120 || entries[0].Seconds != 2 || entries[0].MeanW != 60 {
		t.Fatalf("job a = %+v", entries[0])
	}
	if total := entries[0].EnergyJ + entries[1].EnergyJ; total != 145 {
		t.Fatalf("total = %g", total)
	}
}

func mustFind(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	b, err := workload.Find(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSharedNodeValidation(t *testing.T) {
	n, err := NewSharedNode(platform.ARMConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddJob("a", mustFind(t, "HPCC/FFT"), 0); err == nil {
		t.Fatal("zero share must fail")
	}
	if err := n.AddJob("a", mustFind(t, "HPCC/FFT"), 0.8); err != nil {
		t.Fatal(err)
	}
	if err := n.AddJob("b", mustFind(t, "HPCC/STREAM"), 0.5); err == nil {
		t.Fatal("over-subscription must fail")
	}
}

func TestSharedNodeTruthConsistency(t *testing.T) {
	n, err := NewSharedNode(platform.ARMConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddJob("fft", mustFind(t, "HPCC/FFT"), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := n.AddJob("stream", mustFind(t, "HPCC/STREAM"), 0.5); err != nil {
		t.Fatal(err)
	}
	samples := n.Run(120)
	for i, s := range samples {
		var truth float64
		for _, w := range s.TruthW {
			truth += w
		}
		// Per-job truths must sum to the components up to sensor noise.
		if math.Abs(truth-(s.PCPU+s.PMEM)) > 6*platform.ARMConfig().CompNoise+1 {
			t.Fatalf("second %d: truth sum %.1f vs components %.1f", i, truth, s.PCPU+s.PMEM)
		}
	}
}

func TestAttributionAccuracyOnSharedNode(t *testing.T) {
	// End to end: attribute the (here: true) component power by counter
	// shares and compare with per-job ground truth. The compute-heavy job
	// must receive clearly more CPU energy than the memory-bound one.
	n, err := NewSharedNode(platform.ARMConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddJob("fft", mustFind(t, "HPCC/FFT"), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := n.AddJob("stream", mustFind(t, "HPCC/STREAM"), 0.5); err != nil {
		t.Fatal(err)
	}
	samples := n.Run(200)
	ledger := NewLedger()
	truth := map[string]float64{}
	var absErr, truthSum float64
	for _, s := range samples {
		powers, err := Attribute(s.PCPU, s.PMEM, s.Jobs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ledger.Add(powers)
		for i, p := range powers {
			truth[p.JobID] += s.TruthW[i]
			absErr += math.Abs(p.TotalW() - s.TruthW[i])
			truthSum += s.TruthW[i]
		}
	}
	if relErr := absErr / truthSum; relErr > 0.15 {
		t.Fatalf("mean attribution error %.1f%% of energy", 100*relErr)
	}
	entries := ledger.Entries()
	if entries[0].JobID != "fft" {
		t.Fatalf("fft should dominate the ledger, got %+v", entries)
	}
	// Ledger totals track ground truth.
	var truthTotal float64
	for _, v := range truth {
		truthTotal += v
	}
	var ledgerTotal float64
	for _, e := range entries {
		ledgerTotal += e.EnergyJ
	}
	if math.Abs(ledgerTotal-truthTotal)/truthTotal > 0.05 {
		t.Fatalf("ledger %.0f J vs truth %.0f J", ledgerTotal, truthTotal)
	}
}
