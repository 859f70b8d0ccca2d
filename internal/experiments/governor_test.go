package experiments

import "testing"

func TestGovernorExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and runs 12 governed executions; skipped in -short")
	}
	r, err := RunGovernor(NewConfig(ScaleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d stacks want 4", len(r.Rows))
	}
	byKey := map[string]int{}
	for i, row := range r.Rows {
		byKey[row.Source+"/"+row.Policy] = i
		if row.PeakW <= 0 || row.CompletionSeconds <= 0 {
			t.Fatalf("row %d incomplete: %+v", i, row)
		}
		// Every governed run must stay below the uncapped peak.
		if row.PeakW > r.UncappedPeakW {
			t.Fatalf("%s/%s peak %.1f exceeds uncapped %.1f",
				row.Source, row.Policy, row.PeakW, r.UncappedPeakW)
		}
	}
	raw, ok1 := byKey["raw-im/hysteresis"]
	hr, ok2 := byKey["highrpm/hysteresis"]
	pred, ok3 := byKey["highrpm/predictive"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing stacks: %v", byKey)
	}
	// The headline: fresher estimates cut over-cap time at the same policy,
	// and slope prediction cuts it further.
	if r.Rows[hr].OverCapSeconds > r.Rows[raw].OverCapSeconds {
		t.Errorf("highrpm source over-cap %.1f should not exceed raw IM %.1f",
			r.Rows[hr].OverCapSeconds, r.Rows[raw].OverCapSeconds)
	}
	if r.Rows[pred].OverCapSeconds > r.Rows[hr].OverCapSeconds {
		t.Errorf("predictive over-cap %.1f should not exceed plain hysteresis %.1f",
			r.Rows[pred].OverCapSeconds, r.Rows[hr].OverCapSeconds)
	}
	requireTables(t, r, "governor")
}
