package experiments

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"highrpm/internal/dataset"
)

func benchWorkspace() *Workspace {
	cfg := NewConfig(ScaleBench)
	return NewWorkspace(cfg)
}

func TestConfigScales(t *testing.T) {
	b, q, f := NewConfig(ScaleBench), NewConfig(ScaleQuick), NewConfig(ScaleFull)
	if !(b.SamplesPerSuite < q.SamplesPerSuite && q.SamplesPerSuite <= f.SamplesPerSuite) {
		t.Fatal("scales must grow")
	}
	if f.MaxCombos != 0 {
		t.Fatal("full scale must run all combos")
	}
	if len(f.combos()) != 7 {
		t.Fatalf("full combos = %d", len(f.combos()))
	}
	if len(b.combos()) != 1 {
		t.Fatalf("bench combos = %d", len(b.combos()))
	}
}

func TestSeenVariants(t *testing.T) {
	cfg := NewConfig(ScaleBench)
	if len(cfg.seenVariants()) != 2 {
		t.Fatal("default must evaluate seen and unseen")
	}
	cfg.UnseenOnly = true
	if v := cfg.seenVariants(); len(v) != 1 || v[0] {
		t.Fatal("UnseenOnly must evaluate only unseen")
	}
}

// TestWorkspaceCachesSplits asks for one split from several goroutines at
// once, as -parallel experiments do: every caller must get the same
// materialised split (and the race pass in scripts/verify.sh covers the
// cache's lock through it).
func TestWorkspaceCachesSplits(t *testing.T) {
	ws := benchWorkspace()
	combo := ws.Config().combos()[0]
	got := make([]*dataset.Split, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp, err := ws.Split(combo, false)
			if err != nil {
				t.Error(err)
			}
			got[i] = sp
		}()
	}
	wg.Wait()
	for _, sp := range got {
		if sp == nil || sp != got[0] {
			t.Fatal("workspace must cache splits")
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact has a registered experiment.
	for _, id := range []string{"fig1", "fig2", "tab5", "tab7", "tab9", "fig7", "fig8", "fig9", "hyper", "overhead", "jitter", "ablation", "gpu", "dvfs", "governor"} {
		if Describe(id) == "" {
			t.Fatalf("experiment %s not registered", id)
		}
	}
	// The presentation order is a permutation of the catalogue.
	order := DefaultOrder()
	sort.Strings(order)
	if !reflect.DeepEqual(order, IDs()) {
		t.Fatalf("DefaultOrder %v is not a permutation of IDs %v", DefaultOrder(), IDs())
	}
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("experiment %s registered twice", order[i])
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run(benchWorkspace(), "nope"); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
}

func TestBaselinesMatchTable4(t *testing.T) {
	bs := Baselines()
	if len(bs) != 12 {
		t.Fatalf("Table 4 lists 12 baselines, got %d", len(bs))
	}
	counts := map[string]int{}
	for _, b := range bs {
		counts[b.Type]++
		if (b.New == nil) == (b.NewSeq == nil) {
			t.Fatalf("%s must be exactly one of tabular/sequence", b.Name)
		}
	}
	if counts["Linear"] != 4 || counts["Nonlinear"] != 6 || counts["RNN"] != 2 {
		t.Fatalf("baseline groups = %v want 4/6/2", counts)
	}
}

func TestFig2Shape(t *testing.T) {
	r, err := RunFig2(NewConfig(ScaleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 2 {
		t.Fatalf("%d runs", len(r.Runs))
	}
	var fft, stream Fig2Run
	for _, run := range r.Runs {
		if strings.Contains(run.Benchmark, "FFT") {
			fft = run
		} else {
			stream = run
		}
	}
	if fft.Dominant != "CPU" {
		t.Fatalf("FFT dominated by %s, paper says CPU", fft.Dominant)
	}
	if stream.Dominant != "MEM" {
		t.Fatalf("Stream dominated by %s, paper says MEM", stream.Dominant)
	}
	// Peripheral draw ~25 W on both.
	for _, run := range []Fig2Run{fft, stream} {
		if run.AvgOther < 20 || run.AvgOther > 30 {
			t.Fatalf("%s other power %g W, paper says ~25 W", run.Benchmark, run.AvgOther)
		}
	}
	if r.Tables()[0].String() == "" {
		t.Fatal("empty table")
	}
}

func TestFig1Shape(t *testing.T) {
	r, err := RunFig1(NewConfig(ScaleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scenarios) != 5 {
		t.Fatalf("%d scenarios", len(r.Scenarios))
	}
	a, b := r.Scenarios[0], r.Scenarios[1]
	// Coarser PI must observe far fewer over-cap spikes.
	if sa, sb := a.Result.OverCapReadings, b.Result.OverCapReadings; sb*3 > sa {
		t.Fatalf("PI=10s observed %d spikes vs %d at PI=1s — should hide most", sb, sa)
	}
	// Peak power grows with the action interval (c→e).
	c, e := r.Scenarios[2], r.Scenarios[4]
	if e.Result.PeakW <= c.Result.PeakW {
		t.Fatalf("AI=30 peak %g must exceed AI=1 peak %g", e.Result.PeakW, c.Result.PeakW)
	}
	if e.Result.EnergyJ <= c.Result.EnergyJ {
		t.Fatalf("AI=30 energy %g must exceed AI=1 %g", e.Result.EnergyJ, c.Result.EnergyJ)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.Notes = append(tbl.Notes, "n")
	out := tbl.String()
	for _, want := range []string{"T", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}
