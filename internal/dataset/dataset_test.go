package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"highrpm/internal/platform"
	"highrpm/internal/pmu"
	"highrpm/internal/workload"
)

func smallSet(t *testing.T, n int, seed int64) *Set {
	t.Helper()
	node, err := platform.NewNode(platform.ARMConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Find("HPCC/FFT")
	if err != nil {
		t.Fatal(err)
	}
	tr := node.RunFor(b, float64(n), 1)
	return FromTrace(tr, "HPCC", "FFT")
}

func TestFromTraceShape(t *testing.T) {
	s := smallSet(t, 50, 1)
	if s.Len() != 50 {
		t.Fatalf("Len = %d want 50", s.Len())
	}
	for i, sm := range s.Samples {
		if len(sm.PMC) != pmu.NumEvents {
			t.Fatalf("sample %d has %d PMCs", i, len(sm.PMC))
		}
		if sm.PNode <= 0 || sm.PCPU <= 0 || sm.PMEM <= 0 {
			t.Fatalf("sample %d has non-positive power", i)
		}
	}
	if s.Suites[0] != "HPCC" || s.Benchmarks[0] != "FFT" {
		t.Fatal("tags wrong")
	}
}

func TestAppendRebasesTime(t *testing.T) {
	a := smallSet(t, 20, 2)
	b := smallSet(t, 20, 3)
	a.Append(b)
	if a.Len() != 40 {
		t.Fatalf("Len = %d", a.Len())
	}
	times := a.Times()
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("times not strictly increasing at %d: %g then %g", i, times[i-1], times[i])
		}
	}
}

func TestAppendDoesNotMutateSource(t *testing.T) {
	b := smallSet(t, 10, 5)
	parent := smallSet(t, 10, 6)
	for name, c := range map[string]struct{ dst, src, watched *Set }{
		"argument": {smallSet(t, 10, 4), b, b},
		// A slice must not share its parent's spare capacity.
		"slice's parent": {parent.Slice(0, 5), b, parent},
	} {
		before := append([]Sample(nil), c.watched.Samples...)
		benches := append([]string(nil), c.watched.Benchmarks...)
		c.dst.Append(c.src)
		for i, sm := range c.watched.Samples {
			if sm.Time != before[i].Time || sm.PNode != before[i].PNode || c.watched.Benchmarks[i] != benches[i] {
				t.Fatalf("%s: Append mutated sample %d", name, i)
			}
		}
	}
}

func TestMatrixHelpers(t *testing.T) {
	gpu := &Set{}
	for i := 0; i < 30; i++ {
		gpu.Samples = append(gpu.Samples, Sample{Time: float64(i), PMC: []float64{1, 2, 3, float64(i)}, PNode: 100 + float64(i)})
	}
	for name, c := range map[string]struct {
		set   *Set
		width int
	}{
		"CPU":                 {smallSet(t, 30, 6), pmu.NumEvents},
		"four-counter device": {gpu, 4},
	} {
		s := c.set
		x := s.PMCMatrix()
		r, cols := x.Dims()
		if r != 30 || cols != c.width {
			t.Fatalf("%s: PMCMatrix dims %dx%d", name, r, cols)
		}
		node := s.NodePower()
		xn := s.PMCWithNode(node)
		if _, c2 := xn.Dims(); c2 != c.width+1 {
			t.Fatalf("%s: PMCWithNode cols = %d", name, c2)
		}
		if xn.At(5, c.width) != node[5] {
			t.Fatalf("%s: node feature misplaced", name)
		}
		if len(s.CPUPower()) != 30 || len(s.MemPower()) != 30 {
			t.Fatalf("%s: label lengths wrong", name)
		}
	}
}

func TestPMCWithNodePanicsOnMismatch(t *testing.T) {
	s := smallSet(t, 10, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.PMCWithNode([]float64{1})
}

func TestMeasuredIndices(t *testing.T) {
	s := smallSet(t, 35, 8)
	idx := s.MeasuredIndices(10)
	if len(idx) != 4 || idx[0] != 0 || idx[3] != 30 {
		t.Fatalf("MeasuredIndices = %v", idx)
	}
	if got := s.MeasuredIndices(0); len(got) != 35 {
		t.Fatal("interval 0 must clamp to every sample")
	}
}

func TestCombosCoverAllSuites(t *testing.T) {
	combos := Combos()
	if len(combos) != 7 {
		t.Fatalf("Table 3 has 7 combinations, got %d", len(combos))
	}
	seen := map[string]bool{}
	for _, c := range combos {
		if seen[c.TestSuite] {
			t.Fatalf("suite %s held out twice", c.TestSuite)
		}
		seen[c.TestSuite] = true
		if len(c.TrainSuites) != 6 {
			t.Fatalf("combo %s trains on %d suites want 6", c.TestSuite, len(c.TrainSuites))
		}
		for _, tr := range c.TrainSuites {
			if tr == c.TestSuite {
				t.Fatalf("combo %s trains on its own test suite", c.TestSuite)
			}
		}
	}
}

func TestGenerateSuiteBudget(t *testing.T) {
	cfg := DefaultGenerateConfig()
	cfg.SamplesPerSuite = 150
	s, err := GenerateSuite(cfg, workload.SuiteHPCC)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 150 {
		t.Fatalf("Len = %d want 150", s.Len())
	}
	// Every program segment must run ≥ 60 s (§5.3) except a trailing stub.
	runs := map[string]int{}
	for _, b := range s.Benchmarks {
		runs[b]++
	}
	if len(runs) < 2 {
		t.Fatal("suite generation used only one member")
	}
}

func TestGenerateSuiteUnknown(t *testing.T) {
	if _, err := GenerateSuite(DefaultGenerateConfig(), "NOPE"); err == nil {
		t.Fatal("expected error")
	}
}

func TestGenerateSuiteDeterministic(t *testing.T) {
	cfg := DefaultGenerateConfig()
	cfg.SamplesPerSuite = 120
	a, err := GenerateSuite(cfg, workload.SuiteGraph500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSuite(cfg, workload.SuiteGraph500)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i].PNode != b.Samples[i].PNode {
			t.Fatalf("non-deterministic generation at sample %d", i)
		}
	}
}

func TestBuildSplitUnseenExcludesTestSuite(t *testing.T) {
	cfg := DefaultGenerateConfig()
	cfg.SamplesPerSuite = 120
	combo := Combos()[0]
	sp, err := BuildSplit(cfg, combo, false)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Train.Len() != 6*120 {
		t.Fatalf("unseen train = %d want %d", sp.Train.Len(), 6*120)
	}
	if sp.Test.Len() != 120 {
		t.Fatalf("unseen test = %d want 120", sp.Test.Len())
	}
	for _, s := range sp.Train.Suites {
		if s == combo.TestSuite {
			t.Fatalf("unseen split leaked %s into training", combo.TestSuite)
		}
	}
	for _, s := range sp.Test.Suites {
		if s != combo.TestSuite {
			t.Fatalf("test set contains %s", s)
		}
	}
}

func TestBuildSplitSeenShape(t *testing.T) {
	cfg := DefaultGenerateConfig()
	cfg.SamplesPerSuite = 100
	combo := Combos()[2]
	sp, err := BuildSplit(cfg, combo, true)
	if err != nil {
		t.Fatal(err)
	}
	// 90% of every suite trains (7×90), target suite's 10% tests.
	if sp.Train.Len() != 630 {
		t.Fatalf("seen train = %d want 630", sp.Train.Len())
	}
	if sp.Test.Len() != 70 {
		t.Fatalf("seen test = %d want 70", sp.Test.Len())
	}
	var leaked bool
	for _, s := range sp.Train.Suites {
		if s == combo.TestSuite {
			leaked = true
		}
	}
	if !leaked {
		t.Fatal("seen split must include target-suite samples in training")
	}
}

func TestBuildWindowsShape(t *testing.T) {
	s := smallSet(t, 40, 9)
	prev := s.NodePower()
	ws := BuildWindows(s, prev, 10)
	if len(ws) != 31 {
		t.Fatalf("windows = %d want n-miss+1 = 31", len(ws))
	}
	for _, w := range ws {
		if len(w.Features) != 10 || len(w.Labels) != 10 {
			t.Fatal("window shape wrong")
		}
		for _, f := range w.Features {
			if len(f) != pmu.NumEvents+1 {
				t.Fatalf("feature width %d want %d", len(f), pmu.NumEvents+1)
			}
		}
	}
	// The prev-node feature at step j is prev[i-1].
	w := ws[5] // starts at sample 5
	if w.Features[3][pmu.NumEvents] != prev[5+3-1] {
		t.Fatal("prev-node feature misaligned")
	}
	if w.Labels[0] != s.Samples[5].PNode {
		t.Fatal("labels misaligned")
	}
}

func TestBuildWindowsTooShort(t *testing.T) {
	s := smallSet(t, 5, 10)
	if ws := BuildWindows(s, s.NodePower(), 10); ws != nil {
		t.Fatal("short set must give no windows")
	}
}

func TestSubsampleWindows(t *testing.T) {
	s := smallSet(t, 60, 11)
	ws := BuildWindows(s, s.NodePower(), 10)
	sub := SubsampleWindows(ws, 7)
	if len(sub) != 7 {
		t.Fatalf("subsample = %d want 7", len(sub))
	}
	if got := SubsampleWindows(ws, 0); len(got) != len(ws) {
		t.Fatal("n=0 must keep everything")
	}
	if got := SubsampleWindows(ws, len(ws)+5); len(got) != len(ws) {
		t.Fatal("n>len must keep everything")
	}
}

// Property: WindowsToSeqs preserves alignment for arbitrary window sets.
func TestWindowsToSeqsProperty(t *testing.T) {
	s := smallSet(t, 50, 12)
	ws := BuildWindows(s, s.NodePower(), 5)
	f := func(pick uint8) bool {
		i := int(pick) % len(ws)
		seqs, targets := WindowsToSeqs(ws)
		if len(seqs) != len(ws) || len(targets) != len(ws) {
			return false
		}
		for j := range seqs[i] {
			if &seqs[i][j][0] != &ws[i].Features[j][0] {
				return false // must share backing arrays, not copy
			}
		}
		return math.Abs(targets[i][0]-ws[i].Labels[0]) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceViews(t *testing.T) {
	s := smallSet(t, 30, 13)
	sub := s.Slice(10, 20)
	if sub.Len() != 10 {
		t.Fatalf("Slice len = %d", sub.Len())
	}
	if sub.Samples[0].Time != s.Samples[10].Time {
		t.Fatal("Slice offset wrong")
	}
}
