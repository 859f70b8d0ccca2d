package experiments

import (
	"testing"

	"highrpm/internal/stats"
)

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains per-frequency models; skipped in -short")
	}
	r, err := RunFig9(NewConfig(ScaleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("%d frequency points want 3", len(r.Points))
	}
	cpu := func(p Point) stats.Metrics { return p.At("SRR", targetCPU, unseenApps) }
	nn := func(p Point) stats.Metrics { return p.At("NN", targetCPU, unseenApps) }
	for i, p := range r.Points {
		if cpu(p).N == 0 || p.At("SRR", targetMEM, unseenApps).N == 0 || nn(p).N == 0 {
			t.Fatalf("point %d incomplete", i)
		}
		if i > 0 && p.X <= r.Points[i-1].X {
			t.Fatal("frequencies must ascend")
		}
	}
	// §6.4.2 shape: the top frequency is the hardest for P_CPU.
	lo, hi := r.Points[0], r.Points[len(r.Points)-1]
	if cpu(hi).MAPE <= cpu(lo).MAPE*0.8 {
		t.Errorf("P_CPU should get harder with frequency: %.2f @%.1f vs %.2f @%.1f",
			cpu(lo).MAPE, lo.X, cpu(hi).MAPE, hi.X)
	}
	// And HighRPM stays at or below the PMC-only baseline at the top level.
	if cpu(hi).MAPE > nn(hi).MAPE*1.1 {
		t.Errorf("SRR %.2f should not exceed the NN baseline %.2f at max frequency",
			cpu(hi).MAPE, nn(hi).MAPE)
	}
	requireTables(t, r, "fig9")
}

func TestX86ExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full x86 evaluation; skipped in -short")
	}
	r, err := RunX86(NewConfig(ScaleBench))
	if err != nil {
		t.Fatal(err)
	}
	dyn := r.At("DynamicTRR", targetNode, unseenApps)
	if dyn.N == 0 {
		t.Fatal("no x86 DynamicTRR result")
	}
	// Same headline as the ARM table: DynamicTRR beats every baseline.
	for _, b := range Baselines() {
		if m := r.At(b.Name, targetNode, unseenApps); dyn.MAPE >= m.MAPE {
			t.Errorf("x86: DynamicTRR %.2f must beat %s %.2f", dyn.MAPE, b.Name, m.MAPE)
		}
	}
	// SRR leads on P_CPU as on ARM.
	srr := r.At("SRR", targetCPU, unseenApps)
	for _, b := range Baselines() {
		if m := r.At(b.Name, targetCPU, unseenApps); srr.MAPE >= m.MAPE {
			t.Errorf("x86: SRR P_CPU %.2f must beat %s %.2f", srr.MAPE, b.Name, m.MAPE)
		}
	}
	requireTables(t, r, "tab9")
}
