package experiments

import (
	"strings"
	"testing"

	"highrpm/internal/dataset"
	"highrpm/internal/stats"
)

func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several models; skipped in -short")
	}
	ws := benchWorkspace()
	r, err := RunAblations(ws)
	if err != nil {
		t.Fatal(err)
	}
	node := func(name string) stats.Metrics { return r.At(name, targetNode, unseenApps) }
	if node(ablStaticNoPost).MAPE <= node(ablStaticFull).MAPE {
		t.Errorf("Algorithm 1 should reduce StaticTRR error: %.2f vs %.2f",
			node(ablStaticFull).MAPE, node(ablStaticNoPost).MAPE)
	}
	if node(ablDynamicNoNode).MAPE <= node(ablDynamicFull).MAPE {
		t.Errorf("P'_Node feature should reduce DynamicTRR error: %.2f vs %.2f",
			node(ablDynamicFull).MAPE, node(ablDynamicNoNode).MAPE)
	}
	if node(ablAR).N == 0 || r.At(ablActive, targetCPU, unseenApps).N == 0 || r.At(ablNoActive, targetCPU, unseenApps).N == 0 {
		t.Fatal("missing ablation results")
	}
	requireTables(t, r, "ablation")

	// A training set with 11 IM readings is one short of what AR(5) can be
	// fitted on: that is an error naming the method, not a 0.00 row.
	combo, miss := ws.cfg.combos()[0], ws.cfg.MissInterval
	sp, err := ws.Split(combo, unseenApps)
	if err != nil {
		t.Fatal(err)
	}
	short := NewWorkspace(ws.cfg)
	short.splits[splitKey{combo.TestSuite, unseenApps}] = &dataset.Split{Train: sp.Train.Slice(0, 10*miss+5), Test: sp.Test}
	if r, err := RunAblations(short); err == nil || !strings.Contains(err.Error(), ablAR) {
		t.Fatalf("AR(5) on 11 readings: want an error naming %q and no table, got %v and %v", ablAR, err, r)
	}
}

func TestDVFSShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several models; skipped in -short")
	}
	r, err := RunDVFS(NewConfig(ScaleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("%d rows want 3 (one per ARM DVFS level)", len(r.Points))
	}
	for _, p := range r.Points {
		pl, mx := p.At(perLevel, targetCPU, unseenApps), p.At(mixed, targetCPU, unseenApps)
		if pl.N == 0 || mx.N == 0 {
			t.Fatalf("missing results at %.1f GHz", p.X)
		}
		// The documented finding: per-level training is at least as good.
		if pl.MAPE > mx.MAPE*1.1 {
			t.Errorf("%.1f GHz: per-level %.2f unexpectedly worse than mixed %.2f", p.X, pl.MAPE, mx.MAPE)
		}
	}
}

func TestGPUExtensionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	r, err := RunGPU(NewConfig(ScaleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows want 5 (4 kernels + aliasing remedy)", len(r.Rows))
	}
	var aliasing, remedy GPURow
	for _, row := range r.Rows {
		switch row.Kernel {
		case "reduction":
			aliasing = row
		case "reduction (2s readings)":
			remedy = row
		default:
			// Non-aliased kernels: TRR beats the counter-only baseline.
			if row.TRR.MAPE >= row.LinearCO.MAPE {
				t.Errorf("%s: TRR %.2f should beat counter-only LR %.2f",
					row.Kernel, row.TRR.MAPE, row.LinearCO.MAPE)
			}
		}
	}
	// The documented aliasing failure and its remedy.
	if aliasing.TRR.MAPE < 2*remedy.TRR.MAPE {
		t.Errorf("faster readings should strongly reduce the aliasing error: %.2f vs %.2f",
			aliasing.TRR.MAPE, remedy.TRR.MAPE)
	}
}
