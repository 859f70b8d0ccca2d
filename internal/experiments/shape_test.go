package experiments

import (
	"testing"

	"highrpm/internal/stats"
)

// requireTables checks a result renders exactly the named artifacts, none
// of them empty.
func requireTables(t *testing.T, r interface{ Tables() []*Table }, ids ...string) {
	t.Helper()
	tables := r.Tables()
	if len(tables) != len(ids) {
		t.Fatalf("%d tables, want %v", len(tables), ids)
	}
	for i, tb := range tables {
		if tb.ID != ids[i] || len(tb.Rows) == 0 || tb.String() == "" {
			t.Fatalf("table %d is %q with %d rows, want a non-empty %s", i, tb.ID, len(tb.Rows), ids[i])
		}
	}
}

// The shape tests run the heavier evaluation experiments at bench scale and
// assert the paper's qualitative claims. They are skipped under -short.

func TestTRRComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 15 models; skipped in -short")
	}
	ws := benchWorkspace()
	r, err := RunTRRComparison(ws)
	if err != nil {
		t.Fatal(err)
	}
	unseen := func(name string) stats.Metrics { return r.At(name, targetNode, unseenApps) }
	dyn := unseen("DynamicTRR")
	if dyn.N == 0 {
		t.Fatal("no DynamicTRR result")
	}
	// Headline claim: DynamicTRR beats every baseline on unseen apps.
	for _, b := range Baselines() {
		if m := unseen(b.Name); dyn.MAPE >= m.MAPE {
			t.Errorf("DynamicTRR MAPE %.2f must beat %s %.2f (unseen)", dyn.MAPE, b.Name, m.MAPE)
		}
	}
	// Table 6 ordering: spline ≤ StaticTRR ≤ DynamicTRR (loose ≈ checks —
	// spline and StaticTRR are close by construction).
	spl, st := unseen("Spline"), unseen("StaticTRR")
	if spl.MAPE > st.MAPE*1.3 {
		t.Errorf("spline MAPE %.2f should not exceed StaticTRR %.2f by >30%%", spl.MAPE, st.MAPE)
	}
	if st.MAPE > dyn.MAPE {
		t.Errorf("StaticTRR %.2f should not exceed DynamicTRR %.2f", st.MAPE, dyn.MAPE)
	}
	// Linear models must cluster: max/min within a few percent.
	var lmin, lmax float64 = 1e9, 0
	for _, n := range []string{"LR", "LaR", "RR", "SGD"} {
		m := unseen(n).MAPE
		if m < lmin {
			lmin = m
		}
		if m > lmax {
			lmax = m
		}
	}
	if lmax-lmin > 2 {
		t.Errorf("linear baselines spread too wide: %.2f..%.2f", lmin, lmax)
	}
	requireTables(t, r, "tab5", "tab6")
}

func TestSRRComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 25+ models; skipped in -short")
	}
	ws := benchWorkspace()
	r, err := RunSRRComparison(ws)
	if err != nil {
		t.Fatal(err)
	}
	srrCPU := r.At("SRR", targetCPU, unseenApps)
	if srrCPU.N == 0 {
		t.Fatal("no SRR result")
	}
	// SRR beats every baseline on unseen P_CPU (the paper's strongest
	// spatial claim, 7–24% MAPE reduction).
	for _, b := range Baselines() {
		if m := r.At(b.Name, targetCPU, unseenApps); srrCPU.MAPE >= m.MAPE {
			t.Errorf("SRR P_CPU MAPE %.2f must beat %s %.2f (unseen)", srrCPU.MAPE, b.Name, m.MAPE)
		}
	}
	// Unseen P_MEM stays within ~2 W MAE (paper §6.2.2).
	if mem := r.At("SRR", targetMEM, unseenApps); mem.MAE > 3 {
		t.Errorf("SRR unseen P_MEM MAE %.2f W, paper keeps it ≲ 2 W", mem.MAE)
	}
	// Table 8 ablation: removing P_Node hurts P_CPU substantially.
	with := srrCPU
	without := r.At(srrNoNode.name, targetCPU, unseenApps)
	if without.MAPE < 1.5*with.MAPE {
		t.Errorf("P_Node ablation too weak: %.2f vs %.2f", with.MAPE, without.MAPE)
	}
	requireTables(t, r, "tab7", "tab8")
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	ws := benchWorkspace()
	r, err := RunFig7(ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 2 {
		t.Fatalf("only %d sweep points", len(r.Points))
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if first.X != 10 {
		t.Fatalf("sweep must start at 10 s")
	}
	// Spline degrades as the interval grows.
	a, b := first.At("Spline", targetNode, unseenApps), last.At("Spline", targetNode, unseenApps)
	if b.MAPE <= a.MAPE {
		t.Errorf("spline MAPE should grow with miss_interval: %.2f -> %.2f", a.MAPE, b.MAPE)
	}
}

func TestJitterShape(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	ws := benchWorkspace()
	r, err := RunJitter(ws)
	if err != nil {
		t.Fatal(err)
	}
	clean := r.At(jitterClean, targetNode, unseenApps)
	jittered := r.At(jitterJittered, targetNode, unseenApps)
	dropped := r.At(jitterDropped, targetNode, unseenApps)
	if clean.N == 0 || jittered.N == 0 || dropped.N == 0 {
		t.Fatal("missing results")
	}
	// §6.4.6: readings that move or vanish degrade DynamicTRR.
	if jittered.MAPE < clean.MAPE {
		t.Errorf("jittered readings improved accuracy: %.2f vs clean %.2f", jittered.MAPE, clean.MAPE)
	}
	if dropped.MAPE < clean.MAPE {
		t.Errorf("dropped readings improved accuracy: %.2f vs clean %.2f", dropped.MAPE, clean.MAPE)
	}
}

func TestOverheadClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	ws := benchWorkspace()
	r, err := RunOverhead(ws)
	if err != nil {
		t.Fatal(err)
	}
	// §6.4.5 claims, with slack for the CI machine.
	if r.OfflineTrain.Minutes() > 10 {
		t.Errorf("offline training took %v, paper claims < 10 min", r.OfflineTrain)
	}
	if r.FineTune.Seconds() > 2 {
		t.Errorf("fine-tune took %v, paper claims < 2 s", r.FineTune)
	}
	if r.PredictNode.Milliseconds() > 1 {
		t.Errorf("node prediction latency %v, paper claims < 1 ms", r.PredictNode)
	}
	if r.PredictSpatial.Milliseconds() > 1 {
		t.Errorf("component prediction latency %v, paper claims < 1 ms", r.PredictSpatial)
	}
}
