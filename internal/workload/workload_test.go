package workload

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSuiteCounts(t *testing.T) {
	all := Suite()
	if len(all) != 96 {
		t.Fatalf("suite has %d benchmarks, paper §5.3 lists 96", len(all))
	}
	counts := map[string]int{}
	for _, b := range all {
		counts[b.Suite]++
	}
	want := map[string]int{
		SuiteSPEC: 43, SuitePARSEC: 36, SuiteHPCC: 12,
		SuiteGraph500: 2, SuiteHPLAI: 1, SuiteSMG2000: 1, SuiteHPCG: 1,
	}
	for s, n := range want {
		if counts[s] != n {
			t.Fatalf("%s has %d members want %d", s, counts[s], n)
		}
	}
	names := SuiteNames()
	if len(names) != len(want) {
		t.Fatalf("SuiteNames() = %d names, Table 3 has %d suites", len(names), len(want))
	}
	for _, s := range names {
		if _, ok := want[s]; !ok {
			t.Fatalf("SuiteNames() lists %q, which is no Table 3 suite", s)
		}
	}
}

func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Suite() {
		key := b.String()
		if seen[key] {
			t.Fatalf("duplicate benchmark %s", key)
		}
		seen[key] = true
	}
}

func TestSuiteDeterministic(t *testing.T) {
	a, b := Suite(), Suite()
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Phases) != len(b[i].Phases) {
			t.Fatal("Suite() must be deterministic")
		}
		for p := range a[i].Phases {
			if a[i].Phases[p] != b[i].Phases[p] {
				t.Fatalf("%s phase %d differs between calls", a[i], p)
			}
		}
	}
}

func TestPowerFactorsAssigned(t *testing.T) {
	var minCPU, maxCPU = 10.0, 0.0
	for _, b := range Suite() {
		for _, p := range b.Phases {
			if p.CPUPowerFactor <= 0 || p.MemPowerFactor <= 0 {
				t.Fatalf("%s has unset power factors", b)
			}
			if p.CPUPowerFactor < minCPU {
				minCPU = p.CPUPowerFactor
			}
			if p.CPUPowerFactor > maxCPU {
				maxCPU = p.CPUPowerFactor
			}
		}
	}
	// The population must actually spread — that spread is what defeats
	// PMC-only models on unseen programs.
	if maxCPU-minCPU < 0.3 {
		t.Fatalf("CPU power factor spread %g too narrow", maxCPU-minCPU)
	}
}

func TestFind(t *testing.T) {
	if _, err := Find("HPCC/FFT"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("FFT"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("no-such-benchmark"); err == nil {
		t.Fatal("expected error")
	}
}

func TestFig2WorkloadsExist(t *testing.T) {
	// The Fig. 2 experiment depends on these two being present.
	for _, n := range []string{"HPCC/FFT", "HPCC/STREAM"} {
		if _, err := Find(n); err != nil {
			t.Fatalf("%s missing: %v", n, err)
		}
	}
}

func TestInstanceProgressAndDone(t *testing.T) {
	b := Benchmark{Name: "x", Suite: "t", Phases: []Phase{{Duration: 10, Util: 0.5, IPC: 1, Mem: 0.2}}, Repeat: 1}
	in := NewInstance(b, 1)
	for i := 0; i < 10; i++ {
		if in.Done() {
			t.Fatalf("done after %d s of a 10 s program", i)
		}
		st := in.Advance(1, 1)
		if st.Done {
			t.Fatalf("state done at step %d", i)
		}
	}
	if !in.Done() {
		t.Fatal("not done after 10 s at full speed")
	}
}

func TestFrequencyCappingSlowsComputeBoundWork(t *testing.T) {
	compute := Benchmark{Name: "c", Suite: "t", Phases: []Phase{{Duration: 100, Util: 0.9, IPC: 2, Mem: 0}}, Repeat: 1}
	in := NewInstance(compute, 1)
	steps := 0
	for !in.Done() && steps < 1000 {
		in.Advance(1, 0.5) // half speed
		steps++
	}
	if steps < 190 || steps > 210 {
		t.Fatalf("compute-bound work at half speed took %d s want ~200", steps)
	}
	// Memory-bound work is insensitive to core frequency.
	memory := Benchmark{Name: "m", Suite: "t", Phases: []Phase{{Duration: 100, Util: 0.3, IPC: 0.5, Mem: 1}}, Repeat: 1}
	in = NewInstance(memory, 1)
	steps = 0
	for !in.Done() && steps < 1000 {
		in.Advance(1, 0.5)
		steps++
	}
	if steps > 110 {
		t.Fatalf("memory-bound work at half speed took %d s want ~100", steps)
	}
}

// Property: workload state is always physically plausible.
func TestStateBoundsProperty(t *testing.T) {
	benches := Suite()
	f := func(seed int64, pick uint8) bool {
		b := benches[int(pick)%len(benches)]
		in := NewInstance(b, seed)
		for i := 0; i < 200; i++ {
			st := in.Advance(1, 1)
			if st.Done {
				break
			}
			if st.Util < 0 || st.Util > 1 || st.Mem < 0 || st.Mem > 1 {
				return false
			}
			if st.IPC <= 0 || st.CPUPowerScale <= 0 || st.MemPowerScale <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInstanceDeterministicPerSeed(t *testing.T) {
	b, err := Find("Graph500/bfs")
	if err != nil {
		t.Fatal(err)
	}
	a1 := NewInstance(b, 42)
	a2 := NewInstance(b, 42)
	for i := 0; i < 50; i++ {
		s1 := a1.Advance(1, 1)
		s2 := a2.Advance(1, 1)
		if s1 != s2 {
			t.Fatalf("divergence at step %d: %+v vs %+v", i, s1, s2)
		}
	}
}

func TestTotalDuration(t *testing.T) {
	b := Benchmark{Phases: []Phase{{Duration: 10}, {Duration: 5}}, Repeat: 3}
	if got := b.TotalDuration(); got != 45 {
		t.Fatalf("TotalDuration = %g want 45", got)
	}
	b.Repeat = 0
	if got := b.TotalDuration(); got != 15 {
		t.Fatalf("TotalDuration = %g want 15 (repeat clamps to 1)", got)
	}
}

func TestSpikesOccur(t *testing.T) {
	// Graph500 is configured with a strong spike process; over a long run
	// utilisation must exceed the base level at least occasionally.
	b, err := Find("Graph500/bfs")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(b, rand.Int63())
	base := b.Phases[0].Util + b.Phases[0].LoopAmp + 0.05
	spikes := 0
	for i := 0; i < 300 && !in.Done(); i++ {
		if in.Advance(1, 1).Util > base {
			spikes++
		}
	}
	if spikes == 0 {
		t.Fatal("no spikes observed in 300 s of Graph500")
	}
}
